package fault

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// TestCampaignDigestsPinned pins the rendered campaign reports across
// commits, not only across widths within one binary: a kernel change that
// flipped the same verdict at every lane width would pass
// TestCampaignDeterministicAcrossWorkers but fails here. Each case is the
// SHA-256 prefix of the JSON report (timing off) with the packing width
// capped at each of sim.LaneWordSizes (1, 2 and 4 words). The JSON omits
// the stage counters, so Survivors, Unexcited and the batch counts are
// pinned beside it. Below 4 words every set packs fault-parallel and runs
// the excitation pre-pass, so the W1 and W2 counts cross-check the W4
// sets whose batches start with every survivor pending.
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
				w := bits.TrailingZeros(uint(words))
				if rep.Survivors != tc.survivors || rep.Unexcited != tc.unexcited ||
					rep.TriageBatches != tc.triage[w] || rep.Batches-rep.TriageBatches != tc.escalation[w] {
					t.Fatalf("survivors %d, unexcited %d, batches %d triage + %d escalation; pinned %d, %d, %d + %d",
						rep.Survivors, rep.Unexcited, rep.TriageBatches, rep.Batches-rep.TriageBatches,
						tc.survivors, tc.unexcited, tc.triage[w], tc.escalation[w])
				}
			})
		}
	}
}

// pinnedCampaigns are the operating points whose reports are pinned: s1423
// at l_k 18 (one 724-cell sequential segment, capped at 2^14 patterns) and
// 12, and s5378 at l_k 12, all at seed 1 with collapsing on. triage and
// escalation are the batch counts at 1, 2 and 4 words.
var pinnedCampaigns = []struct {
	circuit              string
	lk                   int
	max                  uint64
	digest               string
	survivors, unexcited int
	triage, escalation   [3]int
}{
	{"s1423", 18, 1 << 14, "db79266e1d16217f", 264, 225, [3]int{23, 12, 7}, [3]int{1, 1, 1}},
	{"s1423", 12, 0, "185988fa1b99a4fb", 144, 22, [3]int{45, 36, 34}, [3]int{11, 11, 11}},
	{"s5378", 12, 0, "f62487705d9d89ca", 201, 45, [3]int{155, 113, 103}, [3]int{23, 23, 23}},
}
