package ucq

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/database"
	"repro/internal/vcache"
)

// This file is the dataset catalog layer: the paper splits enumeration
// cost into instance-dependent preprocessing (Theorem 12's linear pass)
// and constant-delay output, and a catalog is the API shape that lets a
// long-lived process pay the first half once per (query, dataset) instead
// of once per request. A Catalog holds named, versioned datasets whose
// snapshots are immutable — writers install a new snapshot, readers are
// never blocked — and a bind cache keyed on (prepared-query fingerprint,
// dataset name, version) that serves the per-instance half of
// planning: the second BindDataset for the same (query, dataset) skips the
// Theorem 12 pass entirely and goes straight to constant-delay
// enumeration.

// bindCacheSize caps a catalog's bind cache (entries).
const bindCacheSize = 256

// appendLogSize is how many consecutive append deltas a dataset retains
// for incremental subscription catch-up before the oldest is compacted
// away, forcing lagging subscribers to resync from a full evaluation. The
// cap bounds the log's memory; it never loses an answer.
const appendLogSize = 32

// Version identifies one immutable snapshot of a dataset: 1 after
// Register, bumped by every Replace or AppendRows. It aliases uint64 so
// existing callers are unaffected; the delta-maintenance API uses the name
// to make version arguments self-describing.
type Version = uint64

// Journal receives every catalog mutation before it is installed, for
// durable storage: a mutation is acknowledged to the caller only after the
// journal accepted it, and a journal error fails the mutation with the
// in-memory state unchanged. internal/storage.Store implements it; see
// OpenCatalog. The version arguments are the versions the mutations
// install, so replay can reconstruct each dataset at its exact version.
// LogAppend receives the validated delta of one AppendRows, each touched
// relation holding just its appended rows, so a snapshot and an append
// reach the journal as relations alike.
type Journal interface {
	LogRegister(name string, version uint64, inst *Instance) error
	LogReplace(name string, version uint64, inst *Instance) error
	LogAppend(name string, version uint64, rels map[string]*Relation) error
	LogDrop(name string) error
}

// Catalog is a registry of named, versioned datasets sharing one bind
// cache. All methods are safe for concurrent use.
type Catalog struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	binds    *vcache.Cache[*boundQuery]
	// journal, when non-nil, makes mutations durable; see Journal.
	journal Journal
	// gen hands every registration a catalog-unique id: a name that is
	// dropped and re-registered starts again at version 1, and the
	// generation in the bind key is what keeps the new dataset's binds
	// apart from any still-in-flight fills against the old one.
	gen atomic.Uint64
	// appendLog is the per-dataset delta-log capacity: appendLogSize,
	// lowered only by tests that drive compaction.
	appendLog int
}

// NewCatalog builds an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		datasets:  make(map[string]*Dataset),
		binds:     vcache.New[*boundQuery](bindCacheSize),
		appendLog: appendLogSize,
	}
}

// Register adds inst under name at version 1 and returns the dataset. The
// instance is adopted as an immutable snapshot: the caller must not mutate
// it (or any of its relations) afterwards. Registering an existing name
// fails; use Dataset to look it up and Replace to swap its contents. A
// relation wider than wire.MaxArity is rejected, as in every catalog
// write.
func (c *Catalog) Register(name string, inst *Instance) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("ucq: dataset name must be non-empty")
	}
	if err := checkInstanceArity(inst); err != nil {
		return nil, err
	}
	ds := &Dataset{name: name, cat: c, gen: c.gen.Add(1)}
	ds.snap.Store(newSnapshot(name, 1, inst))
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.datasets[name]; ok {
		return nil, fmt.Errorf("ucq: dataset %q already registered", name)
	}
	if c.journal != nil {
		if err := c.journal.LogRegister(name, 1, inst); err != nil {
			return nil, err
		}
	}
	c.datasets[name] = ds
	return ds, nil
}

// Upsert registers name (at version 1) or replaces the existing
// registration's contents (version bump), returning the dataset and
// whether it was created. The lookup-or-create is atomic under the
// catalog lock — two concurrent Upserts of a new name never register
// twice, and the created flag is exact — while the replace write itself
// runs outside it, so a slow snapshot swap never stalls unrelated catalog
// lookups.
func (c *Catalog) Upsert(name string, inst *Instance) (ds *Dataset, created bool, err error) {
	if name == "" {
		return nil, false, fmt.Errorf("ucq: dataset name must be non-empty")
	}
	if err := checkInstanceArity(inst); err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	ds, ok := c.datasets[name]
	if !ok {
		if c.journal != nil {
			if err := c.journal.LogRegister(name, 1, inst); err != nil {
				c.mu.Unlock()
				return nil, false, err
			}
		}
		ds = &Dataset{name: name, cat: c, gen: c.gen.Add(1)}
		ds.snap.Store(newSnapshot(name, 1, inst))
		c.datasets[name] = ds
		c.mu.Unlock()
		return ds, true, nil
	}
	c.mu.Unlock()
	if _, err := ds.Replace(inst); err != nil {
		return nil, false, err
	}
	return ds, false, nil
}

// Dataset looks up a registered dataset by name.
func (c *Catalog) Dataset(name string) (*Dataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	return ds, ok
}

// Drop removes the dataset and purges its cached binds, reporting whether
// it existed. Plans already bound to one of its snapshots keep working —
// snapshots are immutable and outlive the registration. Dropping durable
// state is best-effort: the in-memory registration goes away regardless,
// and a drop the journal missed resurfaces the dataset on the next
// recovery rather than losing anything.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	ds, ok := c.datasets[name]
	delete(c.datasets, name)
	if ok && c.journal != nil {
		_ = c.journal.LogDrop(name)
	}
	c.mu.Unlock()
	if ok {
		c.purgeBinds(name)
		if ds != nil {
			ds.notify(ds.Version())
		}
	}
	return ok
}

// DatasetInfo describes one registered dataset. The JSON tags are the
// wire shape of the server's PUT /datasets/{name} response and GET
// /datasets listing.
type DatasetInfo struct {
	// Name is the registration name.
	Name string `json:"name"`
	// Version counts snapshot installations (1 after Register).
	Version uint64 `json:"version"`
	// Rows is the snapshot's total tuple count across relations.
	Rows int `json:"rows"`
	// Relations is the snapshot's relation count.
	Relations int `json:"relations"`
}

// List returns every registered dataset's current version and size, sorted
// by name.
func (c *Catalog) List() []DatasetInfo {
	c.mu.RLock()
	out := make([]DatasetInfo, 0, len(c.datasets))
	for _, ds := range c.datasets {
		out = append(out, ds.Info())
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BindCacheStats is a point-in-time snapshot of the catalog's bind-cache
// counters (Hits, Misses, Evictions, Size, Capacity). Misses
// count Theorem 12 preprocessing runs; hits count binds served without
// one.
type BindCacheStats = vcache.Stats

// BindCacheStats snapshots the bind-cache counters.
func (c *Catalog) BindCacheStats() BindCacheStats {
	return c.binds.Stats()
}

// purgeBinds drops every cached bind of the named dataset (any version).
func (c *Catalog) purgeBinds(name string) {
	prefix := name + "\x00"
	c.binds.DeleteFunc(func(key string) bool { return strings.HasPrefix(key, prefix) })
}

// Dataset is one named, versioned dataset of a catalog. Its contents are
// reached through immutable snapshots: Replace and AppendRows install a
// new snapshot under a bumped version while readers — including in-flight
// enumerations — keep the snapshot they started with and are never
// blocked. All methods are safe for concurrent use.
type Dataset struct {
	name string
	// cat owns the bind cache; nil for the anonymous one-shot datasets the
	// inline-instance API wraps (those never cache their binds).
	cat *Catalog
	// gen is the catalog-unique registration id (see Catalog.gen).
	gen uint64
	// wmu serializes writers (Replace, AppendRows).
	wmu  sync.Mutex
	snap atomic.Pointer[snapshot]

	// Append-delta log for incremental subscription catch-up. logBase is
	// the snapshot just before the oldest retained entry; together they
	// cover every version in [logBase.version, head] as long as the log is
	// contiguous. Compaction (cap overflow) advances logBase; Replace
	// clears the log entirely (a replace is not a delta). Guarded by logMu,
	// nested inside wmu on the write path.
	logMu   sync.Mutex
	log     []appendDelta
	logBase *snapshot

	// subs holds the live subscriptions to notify after every snapshot
	// installation (append, replace) and on drop. Guarded by subMu.
	subMu sync.Mutex
	subs  map[*Subscription]struct{}
}

// appendDelta is one retained AppendRows outcome: the relations' appended
// rows (possibly empty — recorded anyway so the log stays contiguous) and
// the snapshot the append installed.
type appendDelta struct {
	version uint64
	rels    map[string]*database.Relation
	snap    *snapshot
}

// snapshot is one immutable (version, instance) pair.
type snapshot struct {
	name    string
	version uint64
	inst    *Instance
}

// newSnapshot builds a snapshot.
func newSnapshot(name string, version uint64, inst *Instance) *snapshot {
	return &snapshot{name: name, version: version, inst: inst}
}

// anonymousDataset wraps an inline instance as a one-shot dataset with no
// catalog (and therefore no bind cache) — the shape the legacy NewPlan /
// Bind / POST /query path reduces to. Version 0 marks the bind as
// dataset-less in the plan's provenance.
func anonymousDataset(inst *Instance) *Dataset {
	ds := &Dataset{}
	ds.snap.Store(newSnapshot("", 0, inst))
	return ds
}

// Name returns the dataset's registration name.
func (ds *Dataset) Name() string { return ds.name }

// Version returns the current snapshot's version.
func (ds *Dataset) Version() uint64 { return ds.snap.Load().version }

// Instance returns the current snapshot's instance. It must be treated as
// read-only.
func (ds *Dataset) Instance() *Instance { return ds.snap.Load().inst }

// Info returns the dataset's current version and size.
func (ds *Dataset) Info() DatasetInfo {
	s := ds.snap.Load()
	return DatasetInfo{
		Name:      ds.name,
		Version:   s.version,
		Rows:      s.inst.TupleCount(),
		Relations: len(s.inst.Names()),
	}
}

// Replace installs inst as the dataset's new snapshot and returns the new
// version. The instance is adopted: the caller must not mutate it
// afterwards. Cached binds of older versions are purged; in-flight
// enumerations keep the snapshot they were bound to. With a durable
// catalog the replacement is journaled (and fsynced) before it is
// installed; a journal error, or a relation wider than wire.MaxArity,
// leaves the dataset unchanged.
func (ds *Dataset) Replace(inst *Instance) (uint64, error) {
	if err := checkInstanceArity(inst); err != nil {
		return 0, err
	}
	ds.wmu.Lock()
	v := ds.snap.Load().version + 1
	if ds.cat != nil && ds.cat.journal != nil {
		if err := ds.cat.journal.LogReplace(ds.name, v, inst); err != nil {
			ds.wmu.Unlock()
			return 0, err
		}
	}
	ds.snap.Store(newSnapshot(ds.name, v, inst))
	ds.clearLog()
	ds.wmu.Unlock()
	if ds.cat != nil {
		ds.cat.purgeBinds(ds.name)
	}
	ds.notify(v)
	return v, nil
}

// AppendRows copy-on-write-appends rows to the named relations and
// installs the result as a new snapshot, returning the new version. Only
// the touched relations are copied; untouched ones are shared with the
// previous snapshot. Relations not present yet are created with the arity
// of their first row. Rows are validated like the wire codec's
// (InstanceFromRows): consistent arity, payload-range-checked values. On
// error the dataset is unchanged.
//
// Validation runs before the writer lock is taken, against the then-current
// snapshot, so a large bad payload is rejected without ever serializing
// concurrent Replace/AppendRows behind it; only the cheap arity expectation
// is re-checked under the lock (a concurrent writer may have changed a
// relation's shape between validation and acquisition). With a durable
// catalog the delta is journaled (and fsynced) before it is installed.
func (ds *Dataset) AppendRows(rels map[string][][]int64) (uint64, error) {
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)

	pre := ds.snap.Load().inst
	arities := make(map[string]int, len(names))
	for _, name := range names {
		rows := rels[name]
		if name == "" {
			return 0, fmt.Errorf("ucq: relation with empty name")
		}
		if len(rows) == 0 {
			continue
		}
		arity := len(rows[0])
		if old := pre.Relation(name); old != nil {
			arity = old.Arity()
		} else if arity == 0 {
			return 0, fmt.Errorf("ucq: relation %s has an empty first row; arity unknown", name)
		}
		if err := validateWireRows(name, arity, rows); err != nil {
			return 0, err
		}
		arities[name] = arity
	}

	ds.wmu.Lock()
	defer ds.wmu.Unlock()
	cur := ds.snap.Load()
	inst := cur.inst.ShallowClone()
	deltaRels := make(map[string]*database.Relation, len(names))
	for _, name := range names {
		rows := rels[name]
		if len(rows) == 0 {
			continue
		}
		var rel *database.Relation
		if old := inst.Relation(name); old != nil {
			if old.Arity() != arities[name] {
				// A Replace slipped in between validation and the lock and
				// changed the relation's shape; re-validate against it.
				if err := validateWireRows(name, old.Arity(), rows); err != nil {
					return 0, err
				}
			}
			rel = old.Clone()
		} else {
			rel = database.NewRelation(name, len(rows[0]))
		}
		appendValidatedRows(rel, rows)
		inst.AddRelation(rel)
		drel := database.NewRelation(name, rel.Arity())
		appendValidatedRows(drel, rows)
		deltaRels[name] = drel
	}
	v := cur.version + 1
	if ds.cat != nil && ds.cat.journal != nil {
		if err := ds.cat.journal.LogAppend(ds.name, v, deltaRels); err != nil {
			return 0, err
		}
	}
	snap := newSnapshot(ds.name, v, inst)
	ds.snap.Store(snap)
	ds.recordAppend(cur, appendDelta{version: v, rels: deltaRels, snap: snap})
	if ds.cat != nil {
		ds.cat.purgeBinds(ds.name)
	}
	ds.notify(v)
	return v, nil
}

// recordAppend logs one append delta for subscription catch-up, compacting
// the oldest entry past the catalog's cap. prev is the snapshot the delta
// applied to: it seeds logBase when the log (re)starts, so the covered
// window always begins at a version whose full instance is retained.
func (ds *Dataset) recordAppend(prev *snapshot, d appendDelta) {
	if ds.cat == nil {
		return
	}
	ds.logMu.Lock()
	defer ds.logMu.Unlock()
	if ds.logBase == nil || (len(ds.log) == 0 && ds.logBase.version != prev.version) ||
		(len(ds.log) > 0 && ds.log[len(ds.log)-1].version != prev.version) {
		// (Re)start the window at prev: the log was empty, cleared by a
		// Replace, or somehow non-contiguous.
		ds.log = ds.log[:0]
		ds.logBase = prev
	}
	ds.log = append(ds.log, d)
	for len(ds.log) > ds.cat.appendLog {
		ds.logBase = ds.log[0].snap
		copy(ds.log, ds.log[1:])
		ds.log = ds.log[:len(ds.log)-1]
	}
}

// clearLog drops the retained deltas (Replace installs a non-delta
// snapshot, making incremental catch-up across it impossible).
func (ds *Dataset) clearLog() {
	ds.logMu.Lock()
	ds.log = nil
	ds.logBase = nil
	ds.logMu.Unlock()
}

// DeltasBetween returns the dataset's merged append delta over the version
// window (from, to]: the instance at from, the instance at to, and per
// relation the rows appended anywhere in the window. ok is false when the
// retained log does not cover the whole window — the subscriber missed a
// compaction or a Replace and must resync from a full evaluation.
func (ds *Dataset) DeltasBetween(from, to Version) (fromInst, toInst *Instance, deltas map[string]*database.Relation, ok bool) {
	if from > to {
		return nil, nil, nil, false
	}
	ds.logMu.Lock()
	defer ds.logMu.Unlock()
	if ds.logBase == nil || ds.logBase.version > from {
		return nil, nil, nil, false
	}
	if len(ds.log) == 0 || ds.log[len(ds.log)-1].version < to {
		return nil, nil, nil, false
	}
	fromInst = ds.logBase.inst
	toInst = ds.logBase.inst
	deltas = make(map[string]*database.Relation)
	for _, d := range ds.log {
		if d.version > to {
			break
		}
		if d.version <= from {
			if d.version == from {
				fromInst = d.snap.inst
			}
			if d.version <= to {
				toInst = d.snap.inst
			}
			continue
		}
		toInst = d.snap.inst
		for name, rel := range d.rels {
			m := deltas[name]
			if m == nil {
				m = database.NewRelation(name, rel.Arity())
				deltas[name] = m
			}
			for i, n := 0, rel.Len(); i < n; i++ {
				m.Append(rel.Row(i)...)
			}
		}
	}
	return fromInst, toInst, deltas, true
}

// bindKey builds the bind-cache key. The dataset name leads so Replace and
// Drop can purge by prefix; the registration generation keeps a dropped-
// and-re-registered name (whose versions restart at 1) apart from fills
// still in flight against the old registration; the version makes entries
// for superseded snapshots unreachable immediately. Every part of the key
// is content, so an entry never goes stale and needs no expiry.
func bindKey(name string, gen, version uint64, fingerprint string) string {
	return fmt.Sprintf("%s\x00%d\x00%d\x00%s", name, gen, version, fingerprint)
}

// BindDataset attaches the prepared query to the dataset's current
// snapshot. The per-instance half of planning — Theorem 12 preprocessing
// or naive schema validation — is served from the catalog's bind cache
// keyed on (query fingerprint, dataset, version): the first bind computes
// and caches it, every later bind for the same key reuses it and goes
// straight to enumeration, and concurrent cold binds coalesce onto one
// computation. Replace/AppendRows bump the version, so stale binds are
// never served. The returned plan enumerates the snapshot bound, even if
// the dataset changes afterwards.
func (pq *PreparedQuery) BindDataset(ds *Dataset) (*Plan, error) {
	return pq.BindDatasetContext(context.Background(), ds)
}

// BindDatasetContext is BindDataset with a context: ctx becomes the
// default context of every Answers stream the plan produces (see
// BindContext). Unlike an inline bind, a cache-miss preprocessing run is
// NOT cancelled when ctx is: the computed bind is shared work — it serves
// the callers coalesced onto it and every later request — so it runs to
// completion and is cached even if the instigating caller has gone away.
func (pq *PreparedQuery) BindDatasetContext(ctx context.Context, ds *Dataset) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	snap := ds.snap.Load()
	var (
		bq  *boundQuery
		hit bool
		err error
	)
	if ds.cat == nil {
		// Anonymous one-shot dataset: nothing to share, bind directly
		// (and cancellably) against the pinned snapshot.
		bq, err = pq.bindInstance(ctx, snap.inst)
	} else {
		bq, hit, err = ds.cat.binds.Get(bindKey(snap.name, ds.gen, snap.version, pq.fingerprint),
			func() (*boundQuery, error) {
				return pq.bindInstance(context.WithoutCancel(ctx), snap.inst)
			})
	}
	if err != nil {
		return nil, err
	}
	p := pq.newBoundPlan(ctx, snap.inst, bq)
	p.dsName = snap.name
	p.dsVersion = snap.version
	p.bindHit = hit
	p.ds = ds
	return p, nil
}

// Subscription is a registration for dataset-change wake-ups: every
// snapshot installation (AppendRows, Replace) and the drop of the dataset
// signals Updates. The channel is a coalescing wake signal, not a version
// feed — the value is the head version at notification time, and
// notifications arriving while one is pending are folded into it, so a
// woken subscriber must read the dataset's current state rather than trust
// the value to be the head. Close unregisters; it is idempotent and safe
// to call concurrently with notifications.
type Subscription struct {
	ds   *Dataset
	ch   chan uint64
	once sync.Once
}

// Updates returns the wake channel. It is closed when the subscription is
// Closed; it is NOT closed when the dataset is dropped (a drop signals a
// normal wake-up, and the subscriber observes the missing registration).
func (s *Subscription) Updates() <-chan uint64 { return s.ch }

// Dataset returns the dataset the subscription is registered on. Binding
// plans through it (rather than a fresh catalog lookup) guarantees the
// subscription's wake-ups and the plans' snapshots describe the same
// dataset even across a concurrent drop-and-recreate of the name.
func (s *Subscription) Dataset() *Dataset { return s.ds }

// Close unregisters the subscription and closes its channel.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.ds.subMu.Lock()
		delete(s.ds.subs, s)
		s.ds.subMu.Unlock()
		// No notifier can hold the channel anymore: notify sends only
		// under subMu and only to registered subscriptions.
		close(s.ch)
	})
}

// notify wakes every subscriber with the new head version, coalescing into
// a pending wake-up when the subscriber has not consumed the last one.
func (ds *Dataset) notify(version uint64) {
	ds.subMu.Lock()
	for s := range ds.subs {
		select {
		case s.ch <- version:
		default:
		}
	}
	ds.subMu.Unlock()
}

// subscribe registers a new subscription on the dataset.
func (ds *Dataset) subscribe() *Subscription {
	s := &Subscription{ds: ds, ch: make(chan uint64, 1)}
	ds.subMu.Lock()
	if ds.subs == nil {
		ds.subs = make(map[*Subscription]struct{})
	}
	ds.subs[s] = struct{}{}
	ds.subMu.Unlock()
	return s
}

// Subscribe registers for change notifications on the named dataset. The
// caller must Close the subscription when done. Typical use pairs it with
// the delta API: bind at the current version, then on every wake-up compute
// Plan.DeltaAnswers up to the new head (resyncing from a full enumeration
// when the dataset's retained append log no longer covers the gap).
//
// Subscribe before the initial bind: a subscription registered first can
// miss no version — an append racing the bind shows up either in the bound
// snapshot or as a wake-up (or both, which the version arithmetic
// de-duplicates).
func (c *Catalog) Subscribe(name string) (*Subscription, error) {
	ds, ok := c.Dataset(name)
	if !ok {
		return nil, fmt.Errorf("ucq: dataset %q not registered", name)
	}
	return ds.subscribe(), nil
}
