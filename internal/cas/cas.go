// Package cas is the on-disk content-addressed artifact store behind
// `-cache-dir`: the persistent tier under internal/sweep's in-memory LRU.
// The staged compiler already keys every phase artifact (Parsed → Analyzed
// → Saturated) by a deterministic content key; this package maps those keys
// onto a filesystem layout
//
//	<dir>/<stage>/<fk[:2]>/<fk>
//
// where fk is the hex SHA-256 of the logical key — stage keys are long,
// structured strings ("saturate(circuit:ab12…|b=1,…)") that would not
// survive as filenames, and the two-hex-digit fan-out keeps directories
// small on full Tables 10-12 matrices.
//
// Every entry is self-describing and versioned: a fixed magic line naming
// the container format, a JSON header carrying the stage, the full logical
// key, the payload's schema version, byte size, and SHA-256, then the
// payload bytes. Reads verify everything — the magic, the header's
// stage/key against the request, the payload length and hash — and an
// entry that fails any check is quarantined (moved to <dir>/quarantine/)
// rather than trusted or silently deleted, so a corrupt artifact can never
// poison a report and the evidence survives for inspection. A schema
// version other than the requested one is a clean miss: the entry belongs
// to a different build and the next Put overwrites it.
//
// Writes are atomic: payloads land in a temp file in the store root and
// rename into place, so concurrent writers (shards of one sweep sharing a
// cache directory, two CLI runs racing on one store) at worst both do the
// work and one rename wins — never a torn entry. The store itself holds no
// locks and no in-memory state beyond the root path; any number of
// processes may share a directory.
package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// FormatVersion is the container format this build reads and writes; the
// magic line pins it. Header schema changes bump it.
const FormatVersion = 1

// magic is the first line of every entry file.
const magic = "merced-cas/1\n"

// quarantineDir is the subdirectory corrupt entries are moved into.
const quarantineDir = "quarantine"

// header is the self-describing JSON line between the magic and the
// payload.
type header struct {
	// Stage and Key restate the logical address, so a file moved or
	// renamed by hand is detected instead of served under the wrong key.
	Stage string `json:"stage"`
	Key   string `json:"key"`
	// Schema is the payload's encoding version, owned by the encoder
	// (internal/core for pipeline artifacts). A mismatch is a miss, not an
	// error: old entries stay readable to the builds that wrote them.
	Schema int `json:"schema"`
	// Size and SHA256 pin the payload for integrity verification.
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// Store is one cache directory. The zero value is not usable; call Open.
// A Store is safe for concurrent use by multiple goroutines and multiple
// processes sharing the directory.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cas: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// fileKey hashes a logical key into its filename form.
func fileKey(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// entryPath returns the on-disk location for (stage, key).
func (s *Store) entryPath(stage, key string) string {
	fk := fileKey(key)
	return filepath.Join(s.dir, stage, fk[:2], fk)
}

// Get returns the payload stored under (stage, key) with the requested
// schema version. ok is false with a nil error on a clean miss — no entry,
// or an entry written under a different schema version. A corrupt entry
// (bad magic, unparsable header, stage/key mismatch, size or hash
// mismatch) is quarantined and reported as an error; callers should treat
// it as a miss and recompute.
func (s *Store) Get(stage, key string, schema int) (payload []byte, ok bool, err error) {
	path := s.entryPath(stage, key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cas: reading %s: %w", path, err)
	}
	hdr, payload, err := decodeEntry(data)
	if err != nil {
		s.quarantine(stage, path)
		return nil, false, fmt.Errorf("cas: %s/%s: %w (entry quarantined)", stage, key, err)
	}
	if hdr.Stage != stage || hdr.Key != key {
		s.quarantine(stage, path)
		return nil, false, fmt.Errorf("cas: %s/%s: entry addressed as %s/%s (entry quarantined)", stage, key, hdr.Stage, hdr.Key)
	}
	if hdr.Schema != schema {
		return nil, false, nil // a different build's entry: clean miss
	}
	return payload, true, nil
}

// decodeEntry splits and verifies one entry file: magic, header line,
// payload length and hash.
func decodeEntry(data []byte) (header, []byte, error) {
	var hdr header
	if !bytes.HasPrefix(data, []byte(magic)) {
		return hdr, nil, errors.New("bad magic (not a merced-cas/1 entry)")
	}
	rest := data[len(magic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return hdr, nil, errors.New("truncated header")
	}
	if err := json.Unmarshal(rest[:nl], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("corrupt header: %w", err)
	}
	payload := rest[nl+1:]
	if int64(len(payload)) != hdr.Size {
		return hdr, nil, fmt.Errorf("payload is %d bytes, header says %d", len(payload), hdr.Size)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hdr.SHA256 {
		return hdr, nil, errors.New("payload hash mismatch")
	}
	return hdr, payload, nil
}

// encodeEntry lays out one entry file, the inverse of decodeEntry: magic,
// header line, payload.
func encodeEntry(stage, key string, schema int, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(header{
		Stage: stage, Key: key, Schema: schema,
		Size: int64(len(payload)), SHA256: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(magic) + len(hdr) + 1 + len(payload))
	buf.WriteString(magic)
	buf.Write(hdr)
	buf.WriteByte('\n')
	buf.Write(payload)
	return buf.Bytes(), nil
}

// quarantine moves a bad entry aside (best effort): the file must stop
// being served, but the bytes are kept for inspection rather than deleted.
func (s *Store) quarantine(stage, path string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		_ = os.Remove(path)
		return
	}
	dst := filepath.Join(qdir, stage+"-"+filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		_ = os.Remove(path)
	}
}

// Put stores payload under (stage, key) at the given schema version,
// atomically: the entry is written to a temp file in the store root and
// renamed into place, so a reader never observes a partial entry and
// racing writers resolve to whichever rename lands last.
func (s *Store) Put(stage, key string, schema int, payload []byte) error {
	path := s.entryPath(stage, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cas: put %s/%s: %w", stage, key, err)
	}
	entry, err := encodeEntry(stage, key, schema, payload)
	if err != nil {
		return fmt.Errorf("cas: put %s/%s: %w", stage, key, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("cas: put %s/%s: %w", stage, key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		return fmt.Errorf("cas: put %s/%s: %w", stage, key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cas: put %s/%s: %w", stage, key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cas: put %s/%s: %w", stage, key, err)
	}
	return nil
}
