package ucq

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/wire"
)

// firstValue is the address of a relation's first stored value: two
// relations with the same one share a backing array.
func firstValue(rel *Relation) *Value { return &rel.Values(0, 1)[0] }

// appendBase is the instance the sharing tests start from: R holds 100
// rows, enough that the array R's first append copies into has room for
// the few rows the tests append next.
func appendBase(t *testing.T) *Instance {
	t.Helper()
	rows := make([][]int64, 100)
	for i := range rows {
		rows[i] = []int64{int64(i), 10}
	}
	inst, err := InstanceFromRows(map[string][][]int64{"R": rows, "S": {{10, 100}}})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestAppendSharesRows checks an append grows its relation in place: from
// the first append on, consecutive snapshots' R share one array, while
// each snapshot still reads exactly its own rows.
func TestAppendSharesRows(t *testing.T) {
	ds, err := NewCatalog().Register("d", appendBase(t))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Instance
	for i := range 3 {
		if _, err := ds.AppendRows(map[string][][]int64{"R": {{int64(3 + i), 30}}}); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, ds.Instance())
	}
	for i, inst := range snaps {
		if n := inst.Relation("R").Len(); n != 101+i {
			t.Fatalf("snapshot v%d holds %d rows of R, want %d", i+2, n, 101+i)
		}
		if i > 0 && firstValue(inst.Relation("R")) != firstValue(snaps[i-1].Relation("R")) {
			t.Fatalf("snapshots v%d and v%d hold R in different arrays: the append copied it", i+1, i+2)
		}
	}
	if inst := snaps[2]; inst.Relation("S") != snaps[0].Relation("S") {
		t.Fatal("an append that did not touch S copied it")
	}
}

// TestAppendRecoveryLogSharesHead checks a reopened catalog keeps the
// append log it had before the restart, and that the recovered instances
// since the first replayed append share R's array with the head.
func TestAppendRecoveryLogSharesHead(t *testing.T) {
	dir := t.TempDir()
	cat, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := cat.Register("d", appendBase(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if _, err := ds.AppendRows(map[string][][]int64{"R": {{int64(3 + i), 30}}}); err != nil {
			t.Fatal(err)
		}
	}
	ds, _ = reopen(t, dir, st).Dataset("d")
	head := ds.Instance().Relation("R")
	for from := Version(1); from < 5; from++ {
		fromInst, toInst, deltas, ok := ds.DeltasBetween(from, 5)
		if !ok {
			t.Fatalf("window (%d,5] not retained after reopen", from)
		}
		if toInst != ds.Instance() || deltas["R"].Len() != int(5-from) || fromInst.Relation("R").Len() != int(99+from) {
			t.Fatalf("window (%d,5]: R grew by %d rows from %d, want %d from %d", from, deltas["R"].Len(), fromInst.Relation("R").Len(), 5-from, 99+from)
		}
		if from >= 2 && firstValue(fromInst.Relation("R")) != firstValue(head) {
			t.Fatalf("recovered v%d holds R apart from the head: replay copied it", from)
		}
	}
}

// replayAllocs writes a dataset of base rows and n appends of 16 rows
// under a fresh directory and returns the bytes OpenCatalog allocates to
// recover it.
func replayAllocs(t *testing.T, base, n int) uint64 {
	t.Helper()
	dir := t.TempDir()
	cat, st, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, base)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	inst, err := InstanceFromRows(map[string][][]int64{"R": rows})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := cat.Register("d", inst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		app := make([][]int64, 16)
		for j := range app {
			app[j] = []int64{int64(i), int64(j)}
		}
		if _, err := ds.AppendRows(map[string][][]int64{"R": app}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cat, st, err = OpenCatalog(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ds, _ := cat.Dataset("d"); ds.Version() != uint64(n+1) || ds.Instance().Relation("R").Len() != base+16*n {
		t.Fatalf("recovered %+v, want v%d with %d rows", ds.Info(), n+1, base+16*n)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecoveryAllocationLinear checks WAL replay costs the rows it
// replays: twice the appends allocate about twice the bytes. Replay that
// copied each touched relation per append would grow quadratically.
func TestRecoveryAllocationLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 600 fsynced appends")
	}
	const base, w = 500, 200
	one, two := replayAllocs(t, base, w), replayAllocs(t, base, 2*w)
	ratio := float64(two) / float64(one)
	t.Logf("replaying %d appends allocated %d B, %d appends %d B: ratio %.2f", w, one, 2*w, two, ratio)
	if ratio > 2.5 {
		t.Fatalf("ratio %.2f, want ≤ 2.5", ratio)
	}
}

// TestAppendRegisteredTwice registers one Instance under two names and
// appends different rows to each: neither dataset may see the other's
// rows, although both start from the same arrays with spare capacity.
func TestAppendRegisteredTwice(t *testing.T) {
	inst := NewInstance()
	r := NewRelation("R", 2)
	for i := range 5 { // 10 values: the array has room for more rows
		r.AppendInts(int64(i), 0)
	}
	inst.AddRelation(r)
	cat := NewCatalog()
	a, errA := cat.Register("a", inst)
	b, errB := cat.Register("b", inst)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range 3 {
		if _, err := a.AppendRows(map[string][][]int64{"R": {{100 + int64(i), 1}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AppendRows(map[string][][]int64{"R": {{200 + int64(i), 2}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		ds  *Dataset
		tag int64
	}{{a, 1}, {b, 2}} {
		rows := relationRows(c.ds.Instance().Relation("R"))
		if len(rows) != 8 {
			t.Fatalf("%s holds %d rows, want 8", c.ds.Name(), len(rows))
		}
		for i, row := range rows[5:] {
			if want := []int64{100*c.tag + int64(i), c.tag}; !slices.Equal(row, want) {
				t.Fatalf("%s appended row %d = %v, want %v", c.ds.Name(), i, row, want)
			}
		}
	}
	if r.Len() != 5 {
		t.Fatalf("the registered relation grew to %d rows", r.Len())
	}
}

// TestAppendKeepsOldSnapshots checks an old snapshot's instance, and a
// plan bound at it, keep exactly their rows and answers through 40 later
// appends: past the append log's cap and past the growth of R's array
// beyond its capacity.
func TestAppendKeepsOldSnapshots(t *testing.T) {
	cat := NewCatalog()
	ds, err := cat.Register("d", deltaJoinInstance())
	if err != nil {
		t.Fatal(err)
	}
	// v2: R's array now has spare capacity that later appends write into.
	if _, err := ds.AppendRows(map[string][][]int64{"R": {{3, 10}}}); err != nil {
		t.Fatal(err)
	}
	old := ds.Instance()
	wantRows := relationRows(old.Relation("R"))
	pq, err := Prepare(MustParse("Q(x,y,z) <- R(x,y), S(y,z)."), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pq.BindDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers := map[string]bool{"(1,10,100)": true, "(2,20,200)": true, "(3,10,100)": true}
	for i := range 40 {
		rows := make([][]int64, 8)
		for j := range rows {
			rows[j] = []int64{int64(1000 + 8*i + j), 10}
		}
		if _, err := ds.AppendRows(map[string][][]int64{"R": rows}); err != nil {
			t.Fatal(err)
		}
	}
	if firstValue(ds.Instance().Relation("R")) == firstValue(old.Relation("R")) {
		t.Fatal("40 appends of 8 rows never moved R to a larger array; the test no longer crosses a reallocation")
	}
	if got := relationRows(old.Relation("R")); !slices.EqualFunc(got, wantRows, slices.Equal) {
		t.Fatalf("v2's R = %v after later appends, want %v", got, wantRows)
	}
	sameSet(t, "plan bound at v2", answerKeys(t, plan), wantAnswers)
	if n := ds.Instance().Relation("R").Len(); n != 3+40*8 {
		t.Fatalf("head R holds %d rows, want %d", n, 3+40*8)
	}
	if _, _, _, ok := ds.DeltasBetween(2, ds.Version()); ok {
		t.Fatalf("the log still covers v2 after 40 appends (cap %d)", appendLogSize)
	}
}

// TestAppendConcurrentReaders races a writer per dataset against readers
// of every snapshot. Two datasets start from one instance, so both writers
// first grow from arrays the other can see. Row i of R must read (i, 0)
// for a base row and (i, the dataset's tag) for an appended one in every
// snapshot and every window, also after the writers are done, and a plan
// bound at a version must count exactly that version's rows. Run with
// -race: the writers write past the end of arrays the readers are reading.
func TestAppendConcurrentReaders(t *testing.T) {
	const base, appends = 50, 150
	// rowsAt is R's length at version v: append i adds 1+i%8 rows.
	rowsAt := func(v uint64) int {
		n := base
		for i := range int(v) - 1 {
			n += 1 + i%8
		}
		return n
	}
	checkRows := func(rel *Relation, lo int, tag int64) error {
		for j, row := range relationRows(rel) {
			want := []int64{int64(lo + j), 0}
			if lo+j >= base {
				want[1] = tag
			}
			if !slices.Equal(row, want) {
				return fmt.Errorf("row %d = %v, want %v", lo+j, row, want)
			}
		}
		return nil
	}
	inst := NewInstance()
	r := NewRelation("R", 2)
	for i := range base {
		r.AppendInts(int64(i), 0)
	}
	inst.AddRelation(r)
	cat := NewCatalog()
	pq, err := Prepare(MustParse("Q(x) <- R(x,y)."), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for tag := int64(1); tag <= 2; tag++ {
		ds, err := cat.Register(fmt.Sprint("d", tag), inst)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{}) // closed when the writer returns
		wg.Add(3)
		go func() {
			defer wg.Done()
			defer close(stop)
			for i := range appends {
				n := rowsAt(ds.Version())
				rows := make([][]int64, 1+i%8)
				for j := range rows {
					rows[j] = []int64{int64(n + j), tag}
				}
				if _, err := ds.AppendRows(map[string][][]int64{"R": rows}); err != nil {
					errs <- err
					return
				}
			}
		}()
		for range 2 {
			go func() {
				defer wg.Done()
				var seen []*Instance
				defer func() {
					<-stop
					for _, snap := range seen {
						if err := checkRows(snap.Relation("R"), 0, tag); err != nil {
							errs <- fmt.Errorf("%s after the appends: %v", ds.Name(), err)
							return
						}
					}
				}()
				for ds.Version() <= appends {
					select {
					case <-stop:
						return
					default:
					}
					seen = append(seen, ds.Instance())
					if err := checkRows(seen[len(seen)-1].Relation("R"), 0, tag); err != nil {
						errs <- fmt.Errorf("%s: %v", ds.Name(), err)
						return
					}
					p, err := pq.BindDataset(ds)
					if err != nil {
						errs <- err
						return
					}
					v := p.DatasetVersion()
					if n := p.Materialize().Len(); n != rowsAt(v) {
						errs <- fmt.Errorf("%s v%d: plan counts %d answers, want %d", ds.Name(), v, n, rowsAt(v))
						return
					}
					if from, _, deltas, ok := ds.DeltasBetween(v-1, v); ok && v > 1 {
						if err := checkRows(deltas["R"], from.Relation("R").Len(), tag); err != nil {
							errs <- fmt.Errorf("%s window (%d,%d]: %v", ds.Name(), v-1, v, err)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDatasetAppend checks Append takes a caller's instance of new rows
// without sharing its growth: the rows it appends to an existing relation
// and a relation it adds read back exactly, the caller may go on growing
// its own relation without the dataset seeing it, and a relation wider
// than wire.MaxArity is refused with nothing changed.
func TestDatasetAppend(t *testing.T) {
	ds, err := NewCatalog().Register("d", appendBase(t))
	if err != nil {
		t.Fatal(err)
	}
	r, u := NewRelation("R", 2), NewRelation("U", 1)
	r.AppendInts(500, 10)
	u.AppendInts(7)
	delta := NewInstance()
	delta.AddRelation(r)
	delta.AddRelation(u)
	version, err := ds.Append(delta)
	if err != nil {
		t.Fatal(err)
	}
	u.AppendInts(8) // the caller's relation grows; the dataset's must not
	inst := ds.Instance()
	if version != 2 || inst.Relation("R").Len() != 101 || !inst.Relation("R").Row(100).Equal(Tuple{V(500), V(10)}) {
		t.Fatalf("after Append: version %d, R = %v", version, inst.Relation("R"))
	}
	if got := inst.Relation("U"); got.Len() != 1 || !got.Row(0).Equal(Tuple{V(7)}) {
		t.Fatalf("U = %v, want exactly the appended row (7)", got.Rows())
	}

	wide := NewInstance()
	wide.AddRelation(NewRelation("W", wire.MaxArity+1))
	wide.Relation("W").Append(make([]Value, wire.MaxArity+1)...)
	if _, err := ds.Append(wide); err == nil || ds.Version() != 2 || ds.Instance().Relation("W") != nil {
		t.Fatalf("Append of a %d-wide relation: err %v, version %d", wire.MaxArity+1, err, ds.Version())
	}
}
