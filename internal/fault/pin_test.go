package fault

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestCampaignDigestsPinned pins the rendered campaign reports across
// commits, not only across widths within one binary: a kernel change that
// flipped the same verdict at every lane width would pass
// TestCampaignDeterministicAcrossWorkers but fails here. Each case is the
// SHA-256 prefix of the JSON report (timing off) with the packing width
// capped at each of sim.LaneWordSizes (1, 2 and 4 words).
// A deliberate verdict change must update these digests and say why. They
// were last re-blessed when the flip-flop latch became two-phase: a
// flip-flop fed by another flip-flop used to see that one's new value on
// the same clock, which collapsed shift chains (48 of s1423's 74
// flip-flops) and hid faults along them.
func TestCampaignDigestsPinned(t *testing.T) {
	for _, tc := range pinnedCampaigns {
		c, p := compilePartition(t, tc.circuit, tc.lk)
		for _, words := range sim.LaneWordSizes {
			t.Run(fmt.Sprintf("%s@%d/W%d", tc.circuit, tc.lk, words), func(t *testing.T) {
				rep, err := Campaign(context.Background(), c, p, CampaignOptions{
					MaxPatterns: tc.max, Seed: 1, Workers: 1, Collapse: true, maxWords: words,
				})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				if err := rep.WriteJSON(h, RenderOptions{}); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(h.Sum(nil))[:len(tc.digest)]; got != tc.digest {
					t.Fatalf("report digest %s, pinned %s", got, tc.digest)
				}
			})
		}
	}
}

// pinnedCampaigns are the operating points whose reports are pinned: s1423
// at l_k 18 (one 724-cell sequential segment, capped at 2^14 patterns) and
// 12, and s5378 at l_k 12, all at seed 1 with collapsing on.
var pinnedCampaigns = []struct {
	circuit string
	lk      int
	max     uint64
	digest  string
}{
	{"s1423", 18, 1 << 14, "db79266e1d16217f"},
	{"s1423", 12, 0, "185988fa1b99a4fb"},
	{"s5378", 12, 0, "f62487705d9d89ca"},
}
