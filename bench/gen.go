package main

// Seeded input generators. Everything the engine sees comes from here: the
// same seed gives byte-identical inputs (bench_test.go pins that), so two
// commits measured with one seed did the same work.

import (
	"fmt"
	"math/rand"
	"strings"
)

// rows is the wire shape of an instance: relation name → integer rows. It
// feeds ucq.InstanceFromRows, Dataset.AppendRows and the server's JSON
// bodies alike.
type rows map[string][][]int64

// tupleCount is the instance size the paper's "linear preprocessing" is
// linear in.
func (r rows) tupleCount() int {
	n := 0
	for _, rel := range r {
		n += len(rel)
	}
	return n
}

// sizes fixes every workload's input scale. Benchmark numbers are only
// comparable at benchSizes, so there is no flag for any of it; smokeSizes
// exists for the tier-1 smoke test alone.
type sizes struct {
	// cold-bind: Example 2 over three shared-domain graphs, most edges
	// dangling so the semijoin reduction has work and few answers survive.
	coldN, coldDegree int
	coldDangling      float64
	// enum-union: the same shape with every edge live, so enumeration and
	// cross-branch dedup dominate.
	enumN, enumDegree int
	// serve-stream-*: keys·left·right answers from left+right rows per key.
	joinKeys, joinLeft, joinRight int
	// serve-short: poolRenames renamings of each query shape, poolRows rows
	// per relation.
	poolRenames, poolRows int
	// serve-mixed: a keyed join plus liveLight single-row keys that the
	// appended rows join, appendRows rows per append.
	liveKeys, liveLeft, liveRight, liveLight, appendRows int
}

var benchSizes = sizes{
	coldN: 20000, coldDegree: 3, coldDangling: 0.9,
	enumN: 5000, enumDegree: 3,
	joinKeys: 1000, joinLeft: 10, joinRight: 20,
	poolRenames: 64, poolRows: 300,
	liveKeys: 200, liveLeft: 10, liveRight: 20, liveLight: 4096, appendRows: 16,
}

var smokeSizes = sizes{
	coldN: 600, coldDegree: 3, coldDangling: 0.9,
	enumN: 200, enumDegree: 3,
	joinKeys: 40, joinLeft: 5, joinRight: 5,
	poolRenames: 3, poolRows: 40,
	liveKeys: 20, liveLeft: 5, liveRight: 5, liveLight: 512, appendRows: 16,
}

func sizesFor(small bool) sizes {
	if small {
		return smokeSizes
	}
	return benchSizes
}

// example2Query is the paper's Example 2: Q1 alone is not free-connex, the
// union is tractable because Q2 provides the missing atom (Theorem 12).
const example2Query = "Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).\nQ2(x,y,w) <- R1(x,y), R2(y,w)."

// joinQuery is the free-connex keyed join of the serve-stream and
// serve-mixed workloads.
const joinQuery = "Q(x,z,y) <- R(x,z), S(z,y)."

// Purposes of the seeded random streams.
const (
	purposeInstance = iota + 1
	purposeGrowth
	purposePool
	purposeClient
)

// subRand derives an independent stream per purpose from the run seed, so
// adding a generator never shifts the inputs of another.
func subRand(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

// example2Graphs builds R1, R2, R3 as random graphs over the shared vertex
// domain [0,n): each vertex gets degree distinct out-edges. A dangling edge
// points into [n,2n), which no relation uses as a source, so it joins
// nothing downstream. Sharing the domain makes Q1 and Q2 overlap, which
// keeps the union's dedup live.
func example2Graphs(rng *rand.Rand, n, degree int, dangling float64) rows {
	out := rows{}
	for _, name := range []string{"R1", "R2", "R3"} {
		flat := make([]int64, 2*n*degree)
		rel := make([][]int64, 0, n*degree)
		for u := 0; u < n; u++ {
			first := len(rel)
			for len(rel) < first+degree {
				v := rng.Int63n(int64(n))
				if rng.Float64() < dangling {
					v += int64(n)
				}
				dup := false
				for _, r := range rel[first:] {
					dup = dup || r[1] == v
				}
				if dup {
					continue
				}
				row := flat[2*len(rel) : 2*len(rel)+2 : 2*len(rel)+2]
				row[0], row[1] = int64(u), v
				rel = append(rel, row)
			}
		}
		rng.Shuffle(len(rel), func(i, j int) { rel[i], rel[j] = rel[j], rel[i] })
		out[name] = rel
	}
	return out
}

// keyedJoin builds R(x,z) and S(z,y) for joinQuery: every key z in [0,keys)
// carries left R rows and right S rows with globally distinct x and y, so
// the join has exactly keys·left·right answers, all distinct.
func keyedJoin(rng *rand.Rand, keys, left, right int) rows {
	const xBase, yBase = 1_000_000, 2_000_000
	xs := rng.Perm(keys * left)
	ys := rng.Perm(keys * right)
	r := make([][]int64, 0, keys*left)
	s := make([][]int64, 0, keys*right)
	for z := 0; z < keys; z++ {
		for i := 0; i < left; i++ {
			r = append(r, []int64{xBase + int64(xs[z*left+i]), int64(z)})
		}
		for i := 0; i < right; i++ {
			s = append(s, []int64{int64(z), yBase + int64(ys[z*right+i])})
		}
	}
	rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return rows{"R": r, "S": s}
}

// liveDataset is the serve-mixed instance: a keyed join plus light keys
// that carry one S row and no R row yet. An appended R row on a light key
// therefore adds exactly one answer, which gives every dataset version a
// closed-form answer set without re-evaluating the query.
type liveDataset struct {
	base rows
	// lightY[i] is the y of the single S row of light key lightKey(i).
	lightY   []int64
	keys     int
	nextX    int64
	appendSz int
	rng      *rand.Rand
}

func (d *liveDataset) lightKey(i int) int64 { return int64(d.keys + i) }

func newLiveDataset(rng *rand.Rand, sz sizes) *liveDataset {
	const lightYBase, appendXBase = 3_000_000, 10_000_000
	d := &liveDataset{
		base:     keyedJoin(rng, sz.liveKeys, sz.liveLeft, sz.liveRight),
		keys:     sz.liveKeys,
		nextX:    appendXBase,
		appendSz: sz.appendRows,
		rng:      rng,
	}
	for i, p := range rng.Perm(sz.liveLight) {
		y := lightYBase + int64(p)
		d.lightY = append(d.lightY, y)
		d.base["S"] = append(d.base["S"], []int64{d.lightKey(i), y})
	}
	return d
}

// nextAppend returns the next batch of R rows and the answers it adds.
// Every row has a fresh x and joins an existing light key.
func (d *liveDataset) nextAppend() (batch rows, added [][]int64) {
	r := make([][]int64, 0, d.appendSz)
	for i := 0; i < d.appendSz; i++ {
		k := d.rng.Intn(len(d.lightY))
		r = append(r, []int64{d.nextX, d.lightKey(k)})
		added = append(added, []int64{d.nextX, d.lightKey(k), d.lightY[k]})
		d.nextX++
	}
	return rows{"R": r}, added
}

// poolQuery is one serve-short request: a query over its own small
// instance.
type poolQuery struct {
	Shape string
	Query string
	Rels  rows
}

// poolShapes are the four query shapes of serve-short, written over
// relations A, B, C that queryPool renames. domain sizes each shape's value
// range so a poolRows-row instance yields on the order of a thousand
// answers.
var poolShapes = []struct {
	name   string
	query  string
	rels   []string
	domain int
}{
	// Tractable union whose first branch alone is not free-connex.
	{"example2", "Q1(x,y,w) <- A(x,z), B(z,y), C(y,w).\nQ2(x,y,w) <- A(x,y), B(y,w).", []string{"A", "B", "C"}, 160},
	// Free-connex CQ: certified, single branch.
	{"free-connex", "Q(x,z,y) <- A(x,z), B(z,y).", []string{"A", "B"}, 64},
	// Matrix multiplication: acyclic but not free-connex, so no certificate
	// exists and the server falls back to the naive evaluator.
	{"matmul", "Q(x,y) <- A(x,z), B(z,y).", []string{"A", "B"}, 64},
	// Union of two free-connex CQs.
	{"fc-union", "Q1(x,y,z) <- A(x,y), B(y,z).\nQ2(x,y,z) <- B(x,y), C(y,z).", []string{"A", "B", "C"}, 128},
}

// queryPool builds len(poolShapes)·renames distinct queries. Renaming the
// relations changes the schema, so each renaming is its own plan-cache key
// while the planner's work per query stays the same.
func queryPool(rng *rand.Rand, renames, relRows int) []poolQuery {
	pool := make([]poolQuery, 0, len(poolShapes)*renames)
	for k := 0; k < renames; k++ {
		for _, sh := range poolShapes {
			q := poolQuery{Shape: sh.name, Query: sh.query, Rels: rows{}}
			for _, rel := range sh.rels {
				name := fmt.Sprintf("%s_%d", rel, k)
				q.Query = strings.ReplaceAll(q.Query, rel+"(", name+"(")
				q.Rels[name] = randomPairs(rng, relRows, sh.domain)
			}
			pool = append(pool, q)
		}
	}
	return pool
}

// randomPairs draws n distinct pairs over [0,domain)², clamping n to the
// pairs available.
func randomPairs(rng *rand.Rand, n, domain int) [][]int64 {
	n = min(n, domain*domain)
	seen := make(map[[2]int64]bool, n)
	out := make([][]int64, 0, n)
	for len(out) < n {
		p := [2]int64{rng.Int63n(int64(domain)), rng.Int63n(int64(domain))}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, []int64{p[0], p[1]})
	}
	return out
}
