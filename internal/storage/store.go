package storage

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/database"
)

// Store journals a catalog's dataset mutations under one data directory
// and replays them on startup. Layout:
//
//	<dir>/ds-<hex(name)>/snap-<version>.dat   full-instance snapshot
//	<dir>/ds-<hex(name)>/wal.dat              append records past the snapshot
//
// Snapshot files are written to a temp name, fsynced and atomically
// renamed; WAL appends are fsynced before the mutation is acknowledged.
// A registration or a Replace (LogSnapshot) resets the WAL, so
// a dataset's durable state is always one snapshot plus a suffix of
// appends. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu       sync.Mutex
	datasets map[string]*dsFiles

	walRecords     atomic.Int64
	walBytes       atomic.Int64
	snapshotWrites atomic.Int64
	recovered      atomic.Int64
	tornTails      atomic.Int64
}

// dsFiles is one dataset's open durable state.
type dsFiles struct {
	dir string
	wal *os.File
}

// Open opens (creating if needed) a store rooted at dir. It does not read
// anything; call Recover to load the durable datasets.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("storage: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %v", err)
	}
	return &Store{dir: dir, datasets: make(map[string]*dsFiles)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases every open WAL handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, ds := range s.datasets {
		if err := ds.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.datasets = make(map[string]*dsFiles)
	return first
}

// dsDir maps a dataset name onto its directory; hex keeps arbitrary names
// filesystem-safe and the prefix keeps unrelated files out of Recover.
func (s *Store) dsDir(name string) string {
	return filepath.Join(s.dir, "ds-"+hex.EncodeToString([]byte(name)))
}

// LogSnapshot makes a registration or a replacement durable: its snapshot
// at version, written atomically, and an empty WAL, since the snapshot
// supersedes every append before it. The write is fsynced before
// LogSnapshot returns; superseded snapshot files are removed after.
func (s *Store) LogSnapshot(name string, version uint64, inst *database.Instance) error {
	rec, err := appendRecord(nil, version, inst)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.dsDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: %v", err)
	}
	if err := writeFileSynced(filepath.Join(dir, fmt.Sprintf("snap-%d.dat", version)), rec); err != nil {
		return err
	}
	s.snapshotWrites.Add(1)

	ds, err := s.openWAL(name, dir)
	if err != nil {
		return err
	}
	if err := ds.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: resetting WAL: %v", err)
	}
	if _, err := ds.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("storage: resetting WAL: %v", err)
	}
	if err := ds.wal.Sync(); err != nil {
		return fmt.Errorf("storage: syncing WAL: %v", err)
	}
	// Superseded snapshots are garbage, not state: removal is best-effort
	// and recovery simply ignores older versions when it succeeds.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if v, ok := snapVersion(e.Name()); ok && v != version {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return nil
}

// LogAppend makes one AppendRows delta — the appended rows of each touched
// relation — durable, fsynced before return. The relations may be views
// into the caller's snapshot; LogAppend only reads them.
func (s *Store) LogAppend(name string, version uint64, rels map[string]*database.Relation) error {
	delta := database.NewInstance()
	for _, rel := range rels {
		delta.AddRelation(rel)
	}
	rec, err := appendRecord(nil, version, delta)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[name]
	if !ok {
		return fmt.Errorf("storage: append to unknown dataset %q", name)
	}
	if _, err := ds.wal.Write(rec); err != nil {
		return fmt.Errorf("storage: appending WAL record: %v", err)
	}
	if err := ds.wal.Sync(); err != nil {
		return fmt.Errorf("storage: syncing WAL: %v", err)
	}
	s.walRecords.Add(1)
	s.walBytes.Add(int64(len(rec)))
	return nil
}

// LogDrop removes the dataset's durable state.
func (s *Store) LogDrop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ds, ok := s.datasets[name]; ok {
		_ = ds.wal.Close()
		delete(s.datasets, name)
	}
	if err := os.RemoveAll(s.dsDir(name)); err != nil {
		return fmt.Errorf("storage: dropping %q: %v", name, err)
	}
	return nil
}

// openWAL returns the dataset's WAL handle, opening (and registering) it if
// needed. Callers hold s.mu.
func (s *Store) openWAL(name, dir string) (*dsFiles, error) {
	if ds, ok := s.datasets[name]; ok {
		return ds, nil
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.dat"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening WAL: %v", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seeking WAL: %v", err)
	}
	ds := &dsFiles{dir: dir, wal: f}
	s.datasets[name] = ds
	return ds, nil
}

// Dataset is one recovered dataset: its name, the exact version it was last
// acknowledged at, and its replayed instances.
type Dataset struct {
	Name    string
	Version uint64
	// Log holds the instances at the last versions replayed, oldest first
	// and ending with the one at Version: the snapshot's, then one per
	// append, at most logSize appends (see Recover). Consecutive instances
	// share a relation's array until an append outgrows it.
	Log []*database.Instance
}

// Recover loads every durable dataset: the newest snapshot plus the WAL's
// replayable prefix, each append applied with database.Instance.Extend —
// the code a live append runs — so recovery is linear in the WAL. Each
// dataset keeps the instances of its last logSize appends (see Dataset).
// A torn WAL tail — a crash mid-append — is truncated away and counted;
// the dataset recovers at the last fsynced version. A dataset directory
// with no snapshot file (a crash before the first snapshot rename) is
// removed: nothing in it was ever acknowledged. A snapshot that does not
// decode is corruption, or a directory written in an older format, and
// fails Recover with an error naming the file; the directory is left as it
// is. Recover leaves each WAL open for appending, so a recovered store is
// immediately writable.
func (s *Store) Recover(logSize int) ([]Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %v", err)
	}
	var out []Dataset
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "ds-") {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimPrefix(e.Name(), "ds-"))
		if err != nil || len(raw) == 0 {
			continue
		}
		name := string(raw)
		ds, ok, err := s.recoverDataset(name, filepath.Join(s.dir, e.Name()), logSize)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, ds)
			s.recovered.Add(1)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// recoverDataset restores one dataset directory. ok is false when the
// directory holds no acknowledged state and was cleaned up.
func (s *Store) recoverDataset(name, dir string, logSize int) (Dataset, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Dataset{}, false, fmt.Errorf("storage: %v", err)
	}
	// The newest snapshot wins; older ones only exist when a crash
	// interrupted the post-replace cleanup.
	version, found := uint64(0), false
	for _, e := range entries {
		if v, ok := snapVersion(e.Name()); ok && (!found || v > version) {
			version, found = v, true
		}
	}
	if !found {
		_ = os.RemoveAll(dir)
		return Dataset{}, false, nil
	}
	snapPath := filepath.Join(dir, fmt.Sprintf("snap-%d.dat", version))
	buf, err := os.ReadFile(snapPath)
	if err != nil {
		return Dataset{}, false, fmt.Errorf("storage: %v", err)
	}
	sv, inst, rest, err := readRecord(buf)
	if err != nil || sv != version || len(rest) != 0 {
		return Dataset{}, false, fmt.Errorf("storage: snapshot %s does not decode; the dataset directory is left in place", snapPath)
	}

	// Replay the WAL's valid prefix in version order; truncate the torn
	// tail so later appends never interleave with garbage.
	walPath := filepath.Join(dir, "wal.dat")
	buf, err = os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return Dataset{}, false, fmt.Errorf("storage: reading WAL: %v", err)
	}
	log := []*database.Instance{inst}
	valid := 0
	for len(buf) > valid {
		v, delta, next, err := readRecord(buf[valid:])
		switch {
		case err != nil:
		case v == version+1:
			var grown *database.Instance
			if grown, err = log[len(log)-1].Extend(delta); err == nil {
				version, log = v, append(log[max(0, len(log)-logSize):], grown)
			}
		case v > version:
			// A version gap means records were lost; nothing past it is
			// trustworthy.
			err = errTorn
		}
		// Left over: v <= version, a stale record from before a snapshot
		// whose WAL reset was interrupted; the snapshot already folds it in.
		if err != nil {
			s.tornTails.Add(1)
			break
		}
		valid = len(buf) - len(next)
		s.walRecords.Add(1)
	}
	if valid < len(buf) {
		if err := os.Truncate(walPath, int64(valid)); err != nil && !os.IsNotExist(err) {
			return Dataset{}, false, fmt.Errorf("storage: truncating torn WAL tail: %v", err)
		}
	}
	s.walBytes.Add(int64(valid))
	if _, err := s.openWAL(name, dir); err != nil {
		return Dataset{}, false, err
	}
	return Dataset{Name: name, Version: version, Log: log}, true, nil
}

// snapVersion parses a snapshot file name.
func snapVersion(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".dat") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".dat"), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// writeFileSynced writes data to path via a temp file, fsyncs it, renames
// it into place and fsyncs the directory — the atomic-install idiom.
func writeFileSynced(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-snap-")
	if err != nil {
		return fmt.Errorf("storage: %v", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: writing snapshot: %v", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: syncing snapshot: %v", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("storage: closing snapshot: %v", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("storage: installing snapshot: %v", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Stats is a point-in-time snapshot of the store's gauges.
type Stats struct {
	// Dir is the data directory.
	Dir string
	// Datasets counts datasets with open durable state.
	Datasets int
	// WALRecords and WALBytes count acknowledged WAL appends (recovered
	// records included).
	WALRecords int64
	WALBytes   int64
	// SnapshotWrites counts snapshot installations this process performed.
	SnapshotWrites int64
	// Recovered counts datasets restored by Recover.
	Recovered int64
	// TornTails counts invalid WAL tails truncated during recovery.
	TornTails int64
}

// Stats snapshots the gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.datasets)
	s.mu.Unlock()
	return Stats{
		Dir:            s.dir,
		Datasets:       n,
		WALRecords:     s.walRecords.Load(),
		WALBytes:       s.walBytes.Load(),
		SnapshotWrites: s.snapshotWrites.Load(),
		Recovered:      s.recovered.Load(),
		TornTails:      s.tornTails.Load(),
	}
}
