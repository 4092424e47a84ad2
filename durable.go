package ucq

import (
	"fmt"

	"repro/internal/storage"
)

// OpenCatalog builds a catalog whose mutations are durable under dir: every
// Register, Replace, AppendRows and Drop is journaled (snapshot + WAL,
// fsynced) before it is acknowledged, and OpenCatalog itself replays the
// journal so a restarted process recovers every dataset at the exact
// version it was last acknowledged at. Recovered registrations get fresh
// generations, so the versioned bind cache warms against the recovered
// snapshots exactly as it would against freshly registered ones.
//
// The returned store exposes durability gauges (see storage.Stats) and must
// be closed after the catalog is done with. A dataset whose durable state
// is unreadable past the last valid record loses only unacknowledged
// writes; see storage.Store.Recover for the torn-tail semantics.
func OpenCatalog(dir string) (*Catalog, *storage.Store, error) {
	st, err := storage.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	recovered, err := st.Recover()
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	c := NewCatalog()
	c.journal = st
	for _, r := range recovered {
		ds := &Dataset{name: r.Name, cat: c, gen: c.gen.Add(1)}
		ds.snap.Store(newSnapshot(r.Name, r.Version, r.Inst))
		c.datasets[r.Name] = ds
	}
	if len(c.datasets) != len(recovered) {
		st.Close()
		return nil, nil, fmt.Errorf("ucq: duplicate dataset names in recovery")
	}
	return c, st, nil
}
