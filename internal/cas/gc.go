package cas

// Maintenance for a store directory: occupancy statistics (`merced cas
// stats`) and mark-and-sweep garbage collection (`merced cas gc`).
//
// The GC's mark phase walks every entry and verifies it exactly as Get
// would — magic, header, payload length, payload hash — so the live set is
// "entries a reader could actually trust". The sweep phase then removes
// what is not worth keeping: corrupt entries are quarantined (never
// trusted, never silently lost), entries older than MaxAge are deleted,
// and if the surviving bytes still exceed MaxBytes the least recently
// written entries go until the budget holds. There are no reference roots:
// a content-addressed entry is re-creatable from its inputs by definition,
// so "garbage" is purely an age/size policy decision, not a liveness one.

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// StageStats describes one stage subdirectory's occupancy.
type StageStats struct {
	Stage   string `json:"stage"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Stats describes a store's occupancy, per stage plus the quarantine.
type Stats struct {
	Stages           []StageStats `json:"stages"` // sorted by stage name
	Entries          int          `json:"entries"`
	Bytes            int64        `json:"bytes"`
	Quarantined      int          `json:"quarantined"`
	QuarantinedBytes int64        `json:"quarantined_bytes"`
}

// entryInfo is one on-disk entry found by a walk.
type entryInfo struct {
	path    string
	stage   string
	size    int64
	modTime time.Time
}

// walkEntries inventories the store: every regular file under a stage
// directory (quarantine and temp files excluded). visit is called in
// deterministic (sorted-path) order per filepath.WalkDir.
func (s *Store) walkEntries(visit func(entryInfo)) error {
	stages, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cas: walking store: %w", err)
	}
	for _, st := range stages {
		if !st.IsDir() || st.Name() == quarantineDir {
			continue
		}
		stage := st.Name()
		err := filepath.WalkDir(filepath.Join(s.dir, stage), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			visit(entryInfo{path: path, stage: stage, size: info.Size(), modTime: info.ModTime()})
			return nil
		})
		if err != nil {
			return fmt.Errorf("cas: walking store: %w", err)
		}
	}
	return nil
}

// Stats inventories the store's occupancy.
func (s *Store) Stats() (Stats, error) {
	perStage := map[string]*StageStats{}
	var out Stats
	err := s.walkEntries(func(e entryInfo) {
		st := perStage[e.stage]
		if st == nil {
			st = &StageStats{Stage: e.stage}
			perStage[e.stage] = st
		}
		st.Entries++
		st.Bytes += e.size
		out.Entries++
		out.Bytes += e.size
	})
	if err != nil {
		return Stats{}, err
	}
	names := make([]string, 0, len(perStage))
	for name := range perStage {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Stages = append(out.Stages, *perStage[name])
	}
	qents, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err == nil {
		for _, q := range qents {
			if info, err := q.Info(); err == nil && !q.IsDir() {
				out.Quarantined++
				out.QuarantinedBytes += info.Size()
			}
		}
	} else if !os.IsNotExist(err) {
		return Stats{}, fmt.Errorf("cas: reading quarantine: %w", err)
	}
	return out, nil
}

// GCOptions tunes a collection. The zero value verifies every entry and
// quarantines corruption but deletes nothing.
type GCOptions struct {
	// MaxAge, when positive, deletes entries last written more than MaxAge
	// ago.
	MaxAge time.Duration
	// MaxBytes, when positive, bounds the store: after age expiry, the
	// least recently written entries are deleted until the total payload
	// fits.
	MaxBytes int64
	// PurgeQuarantine deletes everything under <dir>/quarantine.
	PurgeQuarantine bool
	// Now overrides the clock for tests; zero means time.Now().
	Now time.Time
}

// GCReport summarises one collection.
type GCReport struct {
	Kept        int   `json:"kept"`
	KeptBytes   int64 `json:"kept_bytes"`
	Corrupt     int   `json:"corrupt"` // quarantined during the mark phase
	Expired     int   `json:"expired"` // deleted: older than MaxAge
	Evicted     int   `json:"evicted"` // deleted: over the MaxBytes budget
	Purged      int   `json:"purged"`  // quarantine files removed
	FreedBytes  int64 `json:"freed_bytes"`
	CheckErrors int   `json:"check_errors"` // entries that could not be read at all
}

// GC runs a mark-and-sweep collection: verify every entry (quarantining
// corruption), then delete expired and over-budget entries.
func (s *Store) GC(opt GCOptions) (GCReport, error) {
	now := opt.Now
	if now.IsZero() {
		now = time.Now()
	}
	var rep GCReport
	var live []entryInfo
	err := s.walkEntries(func(e entryInfo) {
		data, err := os.ReadFile(e.path)
		if err != nil {
			rep.CheckErrors++
			return
		}
		hdr, _, err := decodeEntry(data)
		if err != nil || hdr.Stage != e.stage {
			s.quarantine(e.stage, e.path)
			rep.Corrupt++
			return
		}
		live = append(live, e)
	})
	if err != nil {
		return rep, err
	}

	var kept []entryInfo
	for _, e := range live {
		if opt.MaxAge > 0 && now.Sub(e.modTime) > opt.MaxAge {
			if rmErr := os.Remove(e.path); rmErr == nil {
				rep.Expired++
				rep.FreedBytes += e.size
				continue
			}
		}
		kept = append(kept, e)
	}

	if opt.MaxBytes > 0 {
		var total int64
		for _, e := range kept {
			total += e.size
		}
		// Oldest first; ties broken by path so the sweep is deterministic.
		sort.Slice(kept, func(i, j int) bool {
			if !kept[i].modTime.Equal(kept[j].modTime) {
				return kept[i].modTime.Before(kept[j].modTime)
			}
			return kept[i].path < kept[j].path
		})
		for len(kept) > 0 && total > opt.MaxBytes {
			e := kept[0]
			kept = kept[1:]
			if rmErr := os.Remove(e.path); rmErr == nil {
				rep.Evicted++
				rep.FreedBytes += e.size
				total -= e.size
			}
		}
	}
	for _, e := range kept {
		rep.Kept++
		rep.KeptBytes += e.size
	}

	if opt.PurgeQuarantine {
		qdir := filepath.Join(s.dir, quarantineDir)
		if qents, err := os.ReadDir(qdir); err == nil {
			for _, q := range qents {
				if info, err := q.Info(); err == nil && !q.IsDir() {
					if os.Remove(filepath.Join(qdir, q.Name())) == nil {
						rep.Purged++
						rep.FreedBytes += info.Size()
					}
				}
			}
		}
	}
	return rep, nil
}

// WriteTo renders the occupancy report as aligned text.
func (st Stats) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, sg := range st.Stages {
		c, err := fmt.Fprintf(w, "%-10s %6d entries  %10d bytes\n", sg.Stage, sg.Entries, sg.Bytes)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	c, err := fmt.Fprintf(w, "%-10s %6d entries  %10d bytes (quarantine: %d files, %d bytes)\n",
		"total", st.Entries, st.Bytes, st.Quarantined, st.QuarantinedBytes)
	return n + int64(c), err
}
