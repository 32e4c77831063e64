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
// A deliberate verdict change must update these digests and say why.
func TestCampaignDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		lk      int
		max     uint64
		digest  string
	}{
		{"s1423", 18, 1 << 14, "8e06610eb3c303d0"},
		{"s1423", 12, 0, "7130ccd889abc1cd"},
		{"s5378", 12, 0, "fcedc6f70a6c0dd0"},
	} {
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
