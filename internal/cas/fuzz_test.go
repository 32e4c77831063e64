package cas

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/internal/sweep"
)

// FuzzDecodeEntry drives arbitrary bytes through decodeEntry, the reader
// behind every -cache-dir hit. It must never panic, and an entry laid out
// by encodeEntry — exactly as Put writes it — must decode back to the same
// stage, key, schema and payload. The corpus is seeded from the entries a
// cold -cache-dir sweep leaves behind (every stage of s27 at two l_k).
func FuzzDecodeEntry(f *testing.F) {
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	cache := sweep.NewCacheWithStore(0, st)
	jobs := sweep.Matrix([]string{"s27"}, []int{3, 4}, []int{50}, []int64{1})
	if _, err := sweep.Run(context.Background(), jobs, sweep.Config{Workers: 1, Cache: cache}); err != nil {
		f.Fatal(err)
	}
	cache.Flush()
	seeded := 0
	var readErr error
	if err := st.walkEntries(func(e entryInfo) {
		data, err := os.ReadFile(e.path)
		if err != nil {
			readErr = err
			return
		}
		f.Add(data)
		seeded++
	}); err != nil {
		f.Fatal(err)
	}
	if readErr != nil {
		f.Fatal(readErr)
	}
	if seeded == 0 {
		f.Fatal("cold -cache-dir run left no entries to seed from")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, payload, err := decodeEntry(data)
		if err != nil {
			// Not an entry: round-trip the bytes as a payload instead.
			hdr, payload = header{Stage: "fuzz", Key: "fuzz"}, data
		}
		entry, err := encodeEntry(hdr.Stage, hdr.Key, hdr.Schema, payload)
		if err != nil {
			t.Fatalf("encodeEntry: %v", err)
		}
		got, gotPayload, err := decodeEntry(entry)
		if err != nil {
			t.Fatalf("an encoded entry does not decode: %v", err)
		}
		if got.Stage != hdr.Stage || got.Key != hdr.Key || got.Schema != hdr.Schema || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip: got %s/%s schema %d (%d bytes), want %s/%s schema %d (%d bytes)",
				got.Stage, got.Key, got.Schema, len(gotPayload), hdr.Stage, hdr.Key, hdr.Schema, len(payload))
		}
	})
}
