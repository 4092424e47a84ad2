package ucq

import (
	"fmt"

	"repro/internal/storage"
)

// OpenCatalog builds a catalog whose mutations are durable under dir: every
// Register, Replace, AppendRows and Drop is journaled (snapshot + WAL,
// fsynced) before it is acknowledged, and OpenCatalog itself replays the
// journal so a restarted process recovers every dataset at the exact
// version it was last acknowledged at. A write through a dropped
// registration fails with ErrDatasetDropped before it reaches the journal,
// so no write to an old registration can land in a new one's files.
// Recovered registrations are built like fresh ones, with fresh
// generations, so the versioned bind cache warms against the recovered
// snapshots exactly as it would against freshly registered ones. Replay
// applies each WAL append with Instance.Extend, the code AppendRows runs,
// so recovery is linear in the WAL, and each dataset's append log is
// seeded with the instances of its last appendLogSize replayed appends:
// DeltasBetween, and a subscription resuming from_version, cover the same
// windows after a restart as before it.
//
// The returned store exposes durability gauges (see storage.Stats) and must
// be closed after the catalog is done with. A WAL tail torn past the last
// complete record loses only unacknowledged writes, while a snapshot that
// does not decode — corruption, or a data directory written before records
// became internal/wire frames — fails OpenCatalog with an error naming the
// file and leaves the directory in place; see storage.Store.Recover.
func OpenCatalog(dir string) (*Catalog, *storage.Store, error) {
	st, err := storage.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	recovered, err := st.Recover(appendLogSize)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	c := NewCatalog()
	c.journal = st
	for _, r := range recovered {
		c.datasets[r.Name] = newDataset(c, r.Name, r.Version, r.Log)
	}
	if len(c.datasets) != len(recovered) {
		st.Close()
		return nil, nil, fmt.Errorf("ucq: duplicate dataset names in recovery")
	}
	return c, st, nil
}
