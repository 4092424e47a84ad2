package ucq

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/database"
	"repro/internal/vcache"
	"repro/internal/wire"
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

// appendLogSize is how many consecutive appends a dataset's log retains
// for incremental subscription catch-up before the oldest is compacted
// away, forcing lagging subscribers to resync from a full evaluation. The
// cap bounds the log's memory; it never loses an answer.
const appendLogSize = 32

// Version identifies one immutable snapshot of a dataset: 1 after
// Register, bumped by every Replace or AppendRows. It aliases uint64 so
// existing callers are unaffected; the delta-maintenance API uses the name
// to make version arguments self-describing.
type Version = uint64

// ErrDatasetDropped reports a write through a Dataset whose registration
// has been dropped. The write changed nothing and was never journaled;
// a registration under the same name is a different Dataset, reached
// through Catalog.Dataset.
var ErrDatasetDropped = errors.New("ucq: dataset was dropped")

// Journal receives every catalog mutation before it is installed, for
// durable storage: a mutation is acknowledged to the caller only after the
// journal accepted it, and a journal error fails the mutation with the
// in-memory state unchanged. internal/storage.Store implements it; see
// OpenCatalog. The version arguments are the versions the mutations
// install, so replay can reconstruct each dataset at its exact version.
// LogSnapshot receives a registration or a Replace: the whole instance,
// superseding everything journaled for the name before. LogAppend receives
// one AppendRows as, per relation it grew, the view of the rows it added,
// so a snapshot and an append reach the journal as relations alike.
type Journal interface {
	LogSnapshot(name string, version uint64, inst *Instance) error
	LogAppend(name string, version uint64, rels map[string]*Relation) error
	LogDrop(name string) error
}

// Catalog is a registry of named, versioned datasets sharing one bind
// cache. Every write is journaled (see Journal) before it is installed,
// and a write through a dropped registration fails with ErrDatasetDropped.
// All methods are safe for concurrent use.
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
}

// NewCatalog builds an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		datasets: make(map[string]*Dataset),
		binds:    vcache.New[*boundQuery](bindCacheSize),
	}
}

// Register adds inst under name at version 1 and returns the dataset. The
// instance is adopted as an immutable snapshot of Views of its relations,
// as in Replace: the caller must not mutate its rows afterwards.
// Registering an existing name fails; use Dataset to look it up and
// Replace to swap its contents. A relation wider than wire.MaxArity is
// rejected, as in every catalog write.
func (c *Catalog) Register(name string, inst *Instance) (*Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.datasets[name]; ok {
		return nil, fmt.Errorf("ucq: dataset %q already registered", name)
	}
	return c.create(name, inst)
}

// Upsert registers name (at version 1) or replaces the existing
// registration's contents (version bump), returning the dataset and
// whether it was created. The lookup-or-create is atomic under the
// catalog lock — two concurrent Upserts of a new name never register
// twice, and the created flag is exact — while the replace write itself
// runs outside it, so a slow snapshot swap never stalls unrelated catalog
// lookups. A replace that loses a race with Drop fails with
// ErrDatasetDropped.
func (c *Catalog) Upsert(name string, inst *Instance) (ds *Dataset, created bool, err error) {
	c.mu.Lock()
	ds, ok := c.datasets[name]
	if !ok {
		ds, err = c.create(name, inst)
		c.mu.Unlock()
		return ds, err == nil, err
	}
	c.mu.Unlock()
	if _, err := ds.Replace(inst); err != nil {
		return nil, false, err
	}
	return ds, false, nil
}

// create validates, journals and installs a new registration of name at
// version 1. Callers hold c.mu and have checked that name is free.
func (c *Catalog) create(name string, inst *Instance) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("ucq: dataset name must be non-empty")
	}
	if err := checkInstanceArity(inst); err != nil {
		return nil, err
	}
	if c.journal != nil {
		if err := c.journal.LogSnapshot(name, 1, inst); err != nil {
			return nil, err
		}
	}
	ds := newDataset(c, name, 1, []*Instance{inst.View()})
	c.datasets[name] = ds
	return ds, nil
}

// Dataset looks up a registered dataset by name.
func (c *Catalog) Dataset(name string) (*Dataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	return ds, ok
}

// Drop removes the dataset and purges its cached binds, reporting whether
// it existed. The registration is marked dropped under its writer lock,
// taken inside the catalog lock, so every later write through it fails
// with ErrDatasetDropped and none reaches the journal after the drop.
// Plans already bound to one of its snapshots keep working — snapshots
// are immutable and outlive the registration. Dropping durable state is
// best-effort: the in-memory registration goes away regardless, and a drop
// the journal missed resurfaces the dataset on the next recovery rather
// than losing anything.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	ds, ok := c.datasets[name]
	if ok {
		delete(c.datasets, name)
		ds.wmu.Lock()
		ds.dropped = true
		if c.journal != nil {
			_ = c.journal.LogDrop(name)
		}
		ds.wmu.Unlock()
	}
	c.mu.Unlock()
	if ok {
		c.purgeBinds(name)
		ds.notify(ds.Version())
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
	// wmu serializes writers (Replace, AppendRows) and Drop's mark.
	wmu sync.Mutex
	// dropped is set by Catalog.Drop; a write that sees it fails with
	// ErrDatasetDropped. Guarded by wmu.
	dropped bool
	snap    atomic.Pointer[snapshot]

	// subs holds the live subscriptions to notify after every snapshot
	// installation (append, replace) and on drop. Guarded by subMu.
	subMu sync.Mutex
	subs  map[*Subscription]struct{}
}

// snapshot is one immutable installed state of a dataset.
type snapshot struct {
	version uint64
	inst    *Instance
	// log is the append log: the instances at versions
	// version-len(log)+1 … version, oldest first and ending with inst,
	// each after the first made from its predecessor by one AppendRows.
	// A registration or a Replace starts it afresh, and it keeps at most
	// appendLogSize appends.
	log []*Instance
}

// next makes the snapshot one version past s holding inst: an append
// extends s's log, a replacement starts a new one.
func (s *snapshot) next(inst *Instance, appended bool) *snapshot {
	log := []*Instance{inst}
	if appended {
		keep := s.log[max(0, len(s.log)-appendLogSize):]
		log = append(append(make([]*Instance, 0, len(keep)+1), keep...), inst)
	}
	return &snapshot{version: s.version + 1, inst: inst, log: log}
}

// newDataset builds every Dataset: a registration of cat whose append log
// is log, at version, the version of log's last instance; or, with cat
// nil, an anonymous one-shot dataset — the shape the legacy NewPlan / Bind
// / POST /query path reduces to, at version 0, which marks the bind as
// dataset-less in the plan's provenance.
func newDataset(cat *Catalog, name string, version uint64, log []*Instance) *Dataset {
	ds := &Dataset{name: name, cat: cat}
	if cat != nil {
		ds.gen = cat.gen.Add(1)
	}
	ds.snap.Store(&snapshot{version: version, inst: log[len(log)-1], log: log})
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
// version. The instance is adopted as Views of its relations, so later
// appends to the dataset copy a relation once before growing it and never
// write into an array the caller or another dataset may grow; the caller
// must not mutate its rows afterwards. Cached binds of older versions are
// purged; in-flight enumerations keep the snapshot they were bound to.
// With a durable catalog the replacement is journaled (and fsynced) before
// it is installed; a journal error, a relation wider than wire.MaxArity,
// or a dropped registration (ErrDatasetDropped) leaves the dataset
// unchanged.
func (ds *Dataset) Replace(inst *Instance) (uint64, error) {
	if err := checkInstanceArity(inst); err != nil {
		return 0, err
	}
	return ds.write(func(cur *snapshot) (*snapshot, error) { return cur.next(inst.View(), false), nil })
}

// AppendRows appends rows to the named relations and installs the result
// as a new snapshot, returning the new version. Relations not present yet
// are created with the arity of their first row; a relation without rows
// is skipped. Before the writer lock is taken, the rows go through the
// checks request bodies are decoded with (wire.Relations): consistent
// arity, as in InstanceFromRows, except that the first row may be empty,
// since the relation it extends fixes the arity. Then Append applies them.
func (ds *Dataset) AppendRows(rels map[string][][]int64) (uint64, error) {
	delta, err := wire.RelationsOf(rels).Delta()
	if err != nil {
		return 0, err
	}
	return ds.Append(delta)
}

// Append appends delta's rows to the dataset and installs the result as a
// new snapshot, returning the new version. Under the writer lock,
// Instance.Extend applies them — the same code that replays the journal —
// checking each arity against the current snapshot and growing the
// touched relations in place, so an append costs the rows it adds: the new
// snapshot shares every relation's array with the previous one, whose
// readers keep exactly their rows. Untouched relations are shared
// outright, and a relation delta adds is adopted as a view, so the caller
// may go on growing its own. With a durable catalog the appended rows are
// journaled (and fsynced) before the snapshot is installed. On error —
// ErrDatasetDropped included — the dataset is unchanged.
func (ds *Dataset) Append(delta *Instance) (uint64, error) {
	if err := checkInstanceArity(delta); err != nil {
		return 0, err
	}
	delta = delta.View()
	return ds.write(func(cur *snapshot) (*snapshot, error) {
		inst, err := cur.inst.Extend(delta)
		if err != nil {
			return nil, err
		}
		return cur.next(inst, true), nil
	})
}

// write is the one write path of a dataset. Under the writer lock it fails
// with ErrDatasetDropped once Drop has marked the registration, lets build
// make the next snapshot from the current one, journals it — an append as
// the rows it added, anything else as a full snapshot — and installs it;
// then it purges the superseded binds and wakes the subscribers. On error
// the dataset is unchanged.
func (ds *Dataset) write(build func(cur *snapshot) (*snapshot, error)) (uint64, error) {
	ds.wmu.Lock()
	if ds.dropped {
		ds.wmu.Unlock()
		return 0, ErrDatasetDropped
	}
	cur := ds.snap.Load()
	next, err := build(cur)
	if err == nil && ds.cat != nil && ds.cat.journal != nil {
		if len(next.log) > 1 {
			err = ds.cat.journal.LogAppend(ds.name, next.version, appendedRows(cur.inst, next.inst))
		} else {
			err = ds.cat.journal.LogSnapshot(ds.name, next.version, next.inst)
		}
	}
	if err != nil {
		ds.wmu.Unlock()
		return 0, err
	}
	ds.snap.Store(next)
	ds.wmu.Unlock()
	if ds.cat != nil {
		ds.cat.purgeBinds(ds.name)
	}
	ds.notify(next.version)
	return next.version, nil
}

// appendedRows returns, per relation of to longer than in from, the
// zero-copy suffix view of its rows past from's length. When appends alone
// lead from from to to, these are exactly the rows they added, in append
// order: an append only ever adds rows past a relation's end.
func appendedRows(from, to *Instance) map[string]*database.Relation {
	out := make(map[string]*database.Relation)
	for _, name := range to.Names() {
		rel, n := to.Relation(name), 0
		if old := from.Relation(name); old != nil {
			n = old.Len()
		}
		if rel.Len() > n {
			out[name] = rel.Suffix(n)
		}
	}
	return out
}

// DeltasBetween returns the dataset's append delta over the version window
// (from, to]: the instance at from, the instance at to, and per relation
// the rows appended anywhere in the window. Because appends only add rows
// past a relation's end, a relation's delta is its rows at to past its
// length at from — a zero-copy suffix view, in append order. ok is false
// when the retained log does not cover the whole window — the subscriber
// missed a compaction or a Replace and must resync from a full evaluation.
func (ds *Dataset) DeltasBetween(from, to Version) (fromInst, toInst *Instance, deltas map[string]*database.Relation, ok bool) {
	s := ds.snap.Load()
	base := s.version + 1 - uint64(len(s.log))
	if from > to || from < base || to > s.version {
		return nil, nil, nil, false
	}
	fromInst, toInst = s.log[from-base], s.log[to-base]
	return fromInst, toInst, appendedRows(fromInst, toInst), true
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
		bq, hit, err = ds.cat.binds.Get(bindKey(ds.name, ds.gen, snap.version, pq.fingerprint),
			func() (*boundQuery, error) {
				return pq.bindInstance(context.WithoutCancel(ctx), snap.inst)
			})
	}
	if err != nil {
		return nil, err
	}
	p := pq.newBoundPlan(ctx, snap.inst, bq)
	p.dsName = ds.name
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
