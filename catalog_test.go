package ucq

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// catalogExample2 is the paper's tractable union (Example 2).
const catalogExample2 = `
	Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
	Q2(x,y,w) <- R1(x,y), R2(y,w).
`

// example2SmallInstance builds the 6-answer instance used across the
// catalog tests.
func example2SmallInstance() *Instance {
	inst := NewInstance()
	r1 := NewRelation("R1", 2)
	r1.AppendInts(1, 2)
	r1.AppendInts(4, 2)
	r2 := NewRelation("R2", 2)
	r2.AppendInts(2, 3)
	r3 := NewRelation("R3", 2)
	r3.AppendInts(3, 5)
	r3.AppendInts(3, 6)
	inst.AddRelation(r1)
	inst.AddRelation(r2)
	inst.AddRelation(r3)
	return inst
}

func TestCatalogRegisterListDrop(t *testing.T) {
	cat := NewCatalog()
	ds, err := cat.Register("events", example2SmallInstance())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "events" || ds.Version() != 1 {
		t.Errorf("ds = %s v%d, want events v1", ds.Name(), ds.Version())
	}
	if _, err := cat.Register("events", example2SmallInstance()); err == nil {
		t.Error("re-registering an existing name should fail")
	}
	if _, err := cat.Register("", example2SmallInstance()); err == nil {
		t.Error("empty dataset name should fail")
	}
	cat.Register("users", NewInstance())
	list := cat.List()
	if len(list) != 2 || list[0].Name != "events" || list[1].Name != "users" {
		t.Fatalf("list = %+v", list)
	}
	if list[0].Rows != 5 || list[0].Relations != 3 {
		t.Errorf("events info = %+v, want 5 rows over 3 relations", list[0])
	}
	if !cat.Drop("events") {
		t.Error("dropping a registered dataset should report true")
	}
	if cat.Drop("events") {
		t.Error("dropping twice should report false")
	}
	if _, ok := cat.Dataset("events"); ok {
		t.Error("dropped dataset still resolvable")
	}
}

func TestCatalogUpsert(t *testing.T) {
	cat := NewCatalog()
	ds, created, err := cat.Upsert("d", example2SmallInstance())
	if err != nil || !created || ds.Version() != 1 {
		t.Fatalf("first upsert: created=%v v=%d err=%v, want created v1", created, ds.Version(), err)
	}
	ds2, created, err := cat.Upsert("d", example2SmallInstance())
	if err != nil || created || ds2 != ds || ds.Version() != 2 {
		t.Fatalf("second upsert: created=%v same=%v v=%d err=%v, want replace to v2", created, ds2 == ds, ds.Version(), err)
	}
	if _, _, err := cat.Upsert("", example2SmallInstance()); err == nil {
		t.Error("empty name should fail")
	}
}

func TestDatasetReplaceAndAppendVersions(t *testing.T) {
	cat := NewCatalog()
	ds, err := cat.Register("d", example2SmallInstance())
	if err != nil {
		t.Fatal(err)
	}
	old := ds.Instance()

	if v, err := ds.Replace(example2SmallInstance()); err != nil || v != 2 {
		t.Errorf("Replace: version %d err %v, want 2", v, err)
	}
	v, err := ds.AppendRows(map[string][][]int64{
		"R3":        {{3, 7}},   // copy-on-write append to an existing relation
		"Extra":     {{1}, {2}}, // fresh relation, arity from the first row
		"Untouched": nil,        // no rows: ignored
	})
	if err != nil || v != 3 {
		t.Fatalf("AppendRows: v=%d err=%v, want v=3", v, err)
	}
	cur := ds.Instance()
	if got := cur.Relation("R3").Len(); got != 3 {
		t.Errorf("R3 rows after append = %d, want 3", got)
	}
	if got := cur.Relation("Extra").Len(); got != 2 {
		t.Errorf("Extra rows = %d, want 2", got)
	}
	// Old snapshots are immutable: the version-1 instance kept its rows.
	if got := old.Relation("R3").Len(); got != 2 {
		t.Errorf("version-1 snapshot mutated: R3 has %d rows, want 2", got)
	}
	// R1 was not touched by the append: shared, not copied.
	if cur.Relation("R1") != ds.Instance().Relation("R1") {
		t.Error("untouched relation should be shared between snapshots")
	}

	// Errors leave the dataset unchanged.
	if _, err := ds.AppendRows(map[string][][]int64{"R3": {{1, 2, 3}}}); err == nil {
		t.Error("arity-mismatched append should fail")
	}
	if _, err := ds.AppendRows(map[string][][]int64{"R3": {{1, 1 << 60}}}); err == nil {
		t.Error("out-of-range payload should fail")
	}
	if ds.Version() != 3 {
		t.Errorf("failed appends bumped the version to %d", ds.Version())
	}
}

// TestBindDatasetCacheHitAndInvalidation is the library half of the
// acceptance criterion: the second BindDataset for the same (query,
// dataset, version) is served from the bind cache — no second Theorem 12
// preprocessing — and a Replace invalidates it.
func TestBindDatasetCacheHitAndInvalidation(t *testing.T) {
	u := MustParse(catalogExample2)
	cat := NewCatalog()
	ds, err := cat.Register("d", example2SmallInstance())
	if err != nil {
		t.Fatal(err)
	}
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Mode != ConstantDelay {
		t.Fatalf("Example 2 should certify constant-delay")
	}

	p1, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if p1.BindCacheHit() {
		t.Error("first bind should be a miss")
	}
	if p1.DatasetName() != "d" || p1.DatasetVersion() != 1 {
		t.Errorf("provenance = %s v%d, want d v1", p1.DatasetName(), p1.DatasetVersion())
	}
	p2, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.BindCacheHit() {
		t.Error("second bind should be a cache hit")
	}
	if got, want := p2.Count(), p1.Count(); got != want || got != 6 {
		t.Errorf("cached bind enumerates %d answers, want %d (=6)", got, want)
	}
	if p2.Explain() != p1.Explain() {
		t.Errorf("cached bind explains differently from the bind that filled it:\n%s\nvs\n%s", p2.Explain(), p1.Explain())
	}
	st := cat.BindCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("bind cache stats = %+v, want 1 hit / 1 miss", st)
	}

	// A fingerprint-equal PreparedQuery (prepared independently) shares the
	// cached bind.
	pq2, err := Prepare(MustParse(catalogExample2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pq2.Fingerprint() != pq.Fingerprint() {
		t.Fatalf("fingerprints differ for identical preparations")
	}
	if p, err := pq2.BindDataset(ds); err != nil || !p.BindCacheHit() {
		t.Errorf("fingerprint-equal prepared query should hit (hit=%v err=%v)", p.BindCacheHit(), err)
	}

	// Replace bumps the version: the next bind re-preprocesses against the
	// new snapshot and old entries are purged.
	repl := example2SmallInstance()
	repl.Relation("R3").AppendInts(3, 9)
	ds.Replace(repl)
	p3, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if p3.BindCacheHit() {
		t.Error("bind after Replace should be a miss")
	}
	if p3.DatasetVersion() != 2 {
		t.Errorf("bind after Replace has version %d, want 2", p3.DatasetVersion())
	}
	if got := p3.Count(); got != 8 {
		t.Errorf("bind after Replace enumerates %d answers, want 8", got)
	}
	if st := cat.BindCacheStats(); st.Size != 1 {
		t.Errorf("stale entries not purged: size = %d, want 1", st.Size)
	}

	// A bind under a request context shares the entry too: the context
	// only scopes the plan's streams.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if p, err := pq.BindDatasetContext(ctx, ds); err != nil || !p.BindCacheHit() {
		t.Errorf("context bind should reuse the cached bind (hit=%v err=%v)", p.BindCacheHit(), err)
	}
}

// TestAutoBindCacheRoundTrip pins that a bind-cache entry round-trips:
// the first bind of a (dataset version, query) misses, a later bind of the
// same pair — through BindDataset or BindDatasetContext — hits the entry
// the first filled, and the cached plan answers exactly as the original.
func TestAutoBindCacheRoundTrip(t *testing.T) {
	u := MustParse("Q(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).")
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewCatalog().Register("d", example2SmallInstance())
	if err != nil {
		t.Fatal(err)
	}
	first, err := pq.BindDatasetContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if first.BindCacheHit() {
		t.Fatal("first bind was a cache hit")
	}
	second, err := pq.BindDatasetContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !second.BindCacheHit() {
		t.Fatal("second bind missed the cache")
	}
	plain, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.BindCacheHit() {
		t.Error("BindDataset missed the entry BindDatasetContext filled")
	}
	if a, b := first.Count(), second.Count(); a != b || a == 0 {
		t.Fatalf("cached plan counts %d answers, original %d", b, a)
	}
}

// TestDropAndReregisterDoesNotReuseOldBinds pins the registration
// generation in the bind key: a name dropped and re-registered restarts
// at version 1, and its binds must never be served from (or collide with)
// the old registration's cache entries — even entries a slow in-flight
// fill lands after the purge.
func TestDropAndReregisterDoesNotReuseOldBinds(t *testing.T) {
	u := MustParse(catalogExample2)
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	ds1, err := cat.Register("d", example2SmallInstance())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.BindDataset(ds1); err != nil { // cache (d, gen1, v1)
		t.Fatal(err)
	}

	cat.Drop("d")
	bigger := example2SmallInstance()
	bigger.Relation("R3").AppendInts(3, 9)
	ds2, err := cat.Register("d", bigger)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Version() != 1 {
		t.Fatalf("re-registered dataset at version %d, want 1", ds2.Version())
	}
	p, err := pq.BindDataset(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if p.BindCacheHit() {
		t.Fatal("bind on the re-registered dataset hit the old registration's cache entry")
	}
	if got := p.Count(); got != 8 {
		t.Errorf("re-registered dataset enumerates %d answers, want 8 (old data: 6)", got)
	}

	// Simulate the in-flight-fill window directly: land a stale entry for
	// the old registration's key after the purge; the new registration's
	// key must not reach it.
	stale, err := pq.bindInstance(context.Background(), example2SmallInstance())
	if err != nil {
		t.Fatal(err)
	}
	cat.binds.Get(bindKey("d", ds1.gen, 1, pq.Fingerprint()),
		func() (*boundQuery, error) { return stale, nil })
	if p, err := pq.BindDataset(ds2); err != nil || p.Count() != 8 {
		t.Errorf("stale old-generation entry leaked into the new registration (count=%d err=%v)", p.Count(), err)
	}
}

func TestBindDatasetNaiveModeCached(t *testing.T) {
	u := MustParse(catalogExample2)
	cat := NewCatalog()
	ds, _ := cat.Register("d", example2SmallInstance())
	pq, err := Prepare(u, &PlanOptions{ForceNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if p1.BindCacheHit() || !p2.BindCacheHit() {
		t.Errorf("naive binds: first hit=%v second hit=%v, want miss then hit", p1.BindCacheHit(), p2.BindCacheHit())
	}
	if p1.Count() != 6 || p2.Count() != 6 {
		t.Errorf("naive dataset binds enumerate %d/%d answers, want 6", p1.Count(), p2.Count())
	}
}

// TestDatasetConcurrentReplaceAndBind is the dataset-lifecycle race pin
// (run under -race in CI): writers replace the dataset while readers bind
// and enumerate; every enumeration must see exactly one snapshot's answer
// set — never a mix — and the answer count must match the version the
// plan reports.
func TestDatasetConcurrentReplaceAndBind(t *testing.T) {
	u := MustParse(`Q(x,z,y) <- R(x,z), S(z,y).`)
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Version v has exactly v·v answers: R and S each hold v rows sharing
	// one join value, so a torn read would produce a count no version has.
	mkInst := func(side int) *Instance {
		inst := NewInstance()
		r := NewRelation("R", 2)
		s := NewRelation("S", 2)
		for i := 0; i < side; i++ {
			r.AppendInts(int64(i), 0)
			s.AppendInts(0, int64(i))
		}
		inst.AddRelation(r)
		inst.AddRelation(s)
		return inst
	}

	cat := NewCatalog()
	ds, err := cat.Register("d", mkInst(1))
	if err != nil {
		t.Fatal(err)
	}

	const writers = 2
	const readers = 4
	const rounds = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ds.Replace(mkInst(1 + i%7))
			}
		}()
	}
	// Each version's answer count is re-derived from the snapshot itself
	// (readers can't know the writers' schedule): two binds reporting the
	// same version must enumerate the same count, and every count must be
	// one a whole snapshot could produce.
	countOf := make(map[uint64]int) // version → answer count
	var mu sync.Mutex
	errs := make(chan error, readers*rounds)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p, err := pq.BindDataset(ds)
				if err != nil {
					errs <- err
					return
				}
				count := p.Materialize().Len()
				mu.Lock()
				if prev, ok := countOf[p.DatasetVersion()]; ok && prev != count {
					errs <- fmt.Errorf("version %d enumerated as %d and %d answers", p.DatasetVersion(), prev, count)
					mu.Unlock()
					return
				}
				countOf[p.DatasetVersion()] = count
				mu.Unlock()
				// A snapshot with side s has exactly s² answers, s ∈ [1, 7]
				// — anything else is a torn snapshot.
				okCount := false
				for s := 1; s <= 7; s++ {
					if count == s*s {
						okCount = true
					}
				}
				if !okCount {
					errs <- fmt.Errorf("round %d: %d answers is no version's count", i, count)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBindCachePurgeRaceDoesNotPinDeadVersions races cold binds against
// writers (AppendRows purges cached binds on every version bump) and then
// checks no dead-version entry survived. The bug: a coalesced fill that
// completed *after* purgeBinds reinserted its entry for the purged
// version/generation — unreachable by any future lookup (binds always key
// on the current version) but pinned in the LRU until capacity eviction.
// With the vcache fix, a purge dooms matching in-flight fills, so once the
// writers stop, the only entry a final bind can leave behind is its own.
// Run with -race: the interleaving itself is the point.
func TestBindCachePurgeRaceDoesNotPinDeadVersions(t *testing.T) {
	u := MustParse(`Q(x,y) <- R(x,y).`)
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := NewInstance()
	r := NewRelation("R", 2)
	r.AppendInts(1, 2)
	inst.AddRelation(r)

	cat := NewCatalog()
	ds, err := cat.Register("d", inst)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 2
	const readers = 4
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := ds.AppendRows(map[string][][]int64{"R": {{int64(i), int64(i)}}}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := pq.BindDataset(ds); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesce: one more bump purges every entry the hammer left (no fills
	// are in flight anymore), then a single bind fills for the current
	// version. Anything beyond that one entry is a resurrected dead
	// version.
	if _, err := ds.AppendRows(map[string][][]int64{"R": {{99, 99}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := pq.BindDataset(ds); err != nil {
		t.Fatal(err)
	}
	if st := cat.BindCacheStats(); st.Size != 1 {
		t.Fatalf("bind cache holds %d entries after quiesce, want exactly 1 (dead versions pinned?): %+v", st.Size, st)
	}
}

// TestBindDatasetCachedSpeedup is the acceptance benchmark's test twin: on
// a 10⁶-tuple instance, a cached bind must be at least 10x faster than the
// cold Theorem 12 pass (in practice it is orders of magnitude faster — a
// cache lookup plus one Plan allocation).
func TestBindDatasetCachedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-tuple instance; skipped in -short")
	}
	u := MustParse(catalogExample2)
	inst := workload.Example2Instance(170000, 2, 1)
	if n := inst.TupleCount(); n < 1_000_000 {
		t.Fatalf("instance has %d tuples, want ≥ 10⁶", n)
	}
	pq, err := Prepare(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	ds, err := cat.Register("big", inst)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if _, err := pq.BindDataset(ds); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	const cachedRounds = 50
	start = time.Now()
	for i := 0; i < cachedRounds; i++ {
		p, err := pq.BindDataset(ds)
		if err != nil {
			t.Fatal(err)
		}
		if !p.BindCacheHit() {
			t.Fatal("expected a cache hit")
		}
	}
	cached := time.Since(start) / cachedRounds

	t.Logf("cold bind %v, cached bind %v (%.0fx)", cold, cached, float64(cold)/float64(cached))
	if cold < 10*cached {
		t.Errorf("cached bind only %.1fx faster than cold (cold %v, cached %v), want ≥ 10x",
			float64(cold)/float64(cached), cold, cached)
	}
}
