package main

// Tracing from the outside. The benchmark records a span around every call
// it makes into a layer's public function (or around the part of a request
// that layer answers for), keeps them in memory and writes them out when
// the workload ends. What cannot be seen from outside the process comes
// from /stats deltas and from the child's CPU clock in /proc.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of one op. Parent is the index of the span
// that caused it (-1 for an op's root), Op ties the spans of one op
// together. Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder collects spans in memory. A nil recorder records nothing, which
// is how the timed windows run: they keep only op start, first answer and
// op end.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now and returns its index.
func (r *recorder) begin(name string, parent, op int) int {
	return r.beginAt(name, parent, op, time.Now())
}

func (r *recorder) beginAt(name string, parent, op int, at time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: int64(at.Sub(r.t0)), End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes the span opened as id.
func (r *recorder) end(id int) { r.endAt(id, time.Now()) }

func (r *recorder) endAt(id int, at time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = int64(at.Sub(r.t0))
	r.mu.Unlock()
}

// finished returns the closed spans with parents re-indexed; spans of an op
// that was still running when the window closed are left out.
func (r *recorder) finished() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// An op is complete when its root closed; children close before it.
	openOp := map[int]bool{}
	for _, s := range r.spans {
		if s.End < 0 {
			openOp[s.Op] = true
		}
	}
	index := make([]int, len(r.spans))
	var out []span
	for i, s := range r.spans {
		if openOp[s.Op] {
			index[i] = -1
			continue
		}
		index[i] = len(out)
		if s.Parent >= 0 {
			s.Parent = index[s.Parent]
		}
		out = append(out, s)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its direct children cover. Children are clipped to the parent and
// overlapping children are not counted twice.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.Start
		for _, c := range iv {
			if c[1] <= edge {
				continue
			}
			covered += c[1] - max(c[0], edge)
			edge = c[1]
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// selfShare is name's share of all self time, i.e. of the traced ops' wall
// time.
func selfShare(self map[string]int64, name string) float64 {
	var total int64
	for _, v := range self {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(self[name]) / float64(total)
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfNS   map[string]int64   `json:"self_time_ns"`
	PerLayer map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// serverStats mirrors the fields of ucq-serve's GET /stats body that the
// benchmark reads. It is declared here, not imported, because the
// benchmark only knows the server through its socket.
type serverStats struct {
	Errors            int64 `json:"errors"`
	RequestsCancelled int64 `json:"requests_cancelled"`
	PlansPrepared     int64 `json:"plans_prepared"`
	Cache             struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	BindCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"bind_cache"`
	DecisionModes map[string]int64 `json:"decision_modes"`
	Delays        struct {
		FirstAnswerP50 int64 `json:"first_answer_p50_ns"`
	} `json:"delays"`
	Wire struct {
		StreamsShed int64 `json:"streams_shed"`
	} `json:"wire"`
	Subscriptions struct {
		AnswersPushed int64 `json:"answers_pushed"`
		Resyncs       int64 `json:"resyncs"`
	} `json:"subscriptions"`
	Storage *struct {
		WALRecords int64 `json:"wal_records"`
		WALBytes   int64 `json:"wal_bytes"`
	} `json:"storage"`
}

// fetchStats reads the server's counters.
func fetchStats(client *http.Client, base string) (serverStats, error) {
	var st serverStats
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// clockTick is the kernel's USER_HZ, the unit of the CPU fields in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procStat is what /proc/<pid>/stat says about a live process: its user
// and system CPU time so far and its resident set.
type procStat struct {
	User, Sys time.Duration
	RSS       int64 // bytes
}

// cpu is the process's user+sys CPU time.
func (p procStat) cpu() time.Duration { return p.User + p.Sys }

// readProcStat reads /proc/<pid>/stat. A process that cannot be read (it
// has gone) reads as zero; the op that asked fails its oracle check anyway.
func readProcStat(pid int) procStat {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}
	}
	st, _ := parseProcStat(string(data))
	return st
}

func parseProcStat(stat string) (procStat, error) {
	// The command name (field 2) is parenthesised and may contain spaces;
	// the numbered fields resume after the last ')'.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("malformed /proc stat line")
	}
	// fields[0] is field 3 (state): utime, stime and rss are fields 14, 15
	// and 24.
	fields := strings.Fields(stat[i+1:])
	if len(fields) < 22 {
		return procStat{}, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	pages, err3 := strconv.ParseInt(fields[21], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, fmt.Errorf("non-numeric fields in /proc stat line")
	}
	return procStat{
		User: time.Duration(utime) * clockTick,
		Sys:  time.Duration(stime) * clockTick,
		RSS:  pages * int64(os.Getpagesize()),
	}, nil
}
