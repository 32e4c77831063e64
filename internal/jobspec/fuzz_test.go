package jobspec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseSpec drives arbitrary bytes down the path -spec files take:
// Decode, then Normalize, then Validate. None may panic, and an accepted
// spec must re-encode to a document that parses back to a spec with the
// same encoding. The compile and cover seeds carry bodies removed within
// version 1, so they must be rejected.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3},"output":{"metrics":true}}`,
		`{"v":1,"kind":"sweep","timeout":"10m","sweep":{"circuits":["s27","s510"],"lks":[8],"workers":4,"job_timeout":"90s"},"output":{"format":"json","no_timing":true}}`,
		`{"v":1,"kind":"cover","cover":{"circuit":"s510","lk":8,"max_patterns":4096,"no_collapse":true},"output":{"undetected":true}}`,
		`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":3,"seed":2}],"shard":{"index":2,"count":3}}}`,
		`{"v":1,"kind":"sweep","sweep":{"circuits":[],"jobs":[]},"output":{"format":"csv","cache_stats":true}}`,
		`{"v":1,"kind":"sweep","sweep":{"lks":[0]}}`,
		`{"v":2,"kind":"compile","compile":{"circuit":"s27"}}`,
		`{"v":1,"kind":"compile","compile":{"circuit":"s27"},"bogus":1}`,
		`{"v":1,"kind":"sweep","timeout":90,"sweep":{}}`,
		`{"v":1,"kind":"sweep","sweep":{}} {}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		s1, err := parseSpec(bytes.NewReader(doc))
		if err != nil {
			return
		}
		if s1.Kind != KindSweep {
			t.Fatalf("accepted kind %q", s1.Kind)
		}
		enc1, err := json.Marshal(s1)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		s2, err := parseSpec(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("re-parsed spec does not encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("round trip changed the spec:\n first %s\nsecond %s", enc1, enc2)
		}
	})
}
