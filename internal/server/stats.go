package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vcache"
	"repro/internal/wire"
)

// delayWindow is how many recent requests contribute to the /stats delay
// percentiles.
const delayWindow = 1024

// reqTiming is the per-request delay summary recorded after a stream
// finishes.
type reqTiming struct {
	// firstAnswer is the time from request admission (after decoding) to
	// the first answer leaving the handler — the per-request preprocessing
	// cost the client observes.
	firstAnswer time.Duration
	// maxDelay is the largest inter-answer gap of the stream.
	maxDelay time.Duration
}

// Stats aggregates server counters and a bounded window of per-request
// delay summaries. All methods are safe for concurrent use.
type Stats struct {
	requests          atomic.Int64
	errors            atomic.Int64
	answersStreamed   atomic.Int64
	streamsCompleted  atomic.Int64
	requestsCancelled atomic.Int64
	plansPrepared     atomic.Int64

	// Wire counters, by negotiated answer encoding: completed-or-cancelled
	// streaming responses, answer rows and socket bytes.
	ndjsonRequests atomic.Int64
	binaryRequests atomic.Int64
	ndjsonRows     atomic.Int64
	binaryRows     atomic.Int64
	ndjsonBytes    atomic.Int64
	binaryBytes    atomic.Int64

	// Subscription counters: subscriptions admitted, delta windows
	// evaluated on behalf of them, answers those windows pushed, and the
	// times a lagging subscriber was degraded to a full resync because the
	// append log no longer covered its window.
	subsStarted        atomic.Int64
	deltasEvaluated    atomic.Int64
	deltaAnswersPushed atomic.Int64
	subsResyncs        atomic.Int64

	mu   sync.Mutex
	ring [delayWindow]reqTiming
	next int
	n    int
}

// recordWire counts one finished streaming response under its negotiated
// encoding.
func (s *Stats) recordWire(media string, rows int, bytes int64) {
	if media == wire.MediaTypeBinary {
		s.binaryRequests.Add(1)
		s.binaryRows.Add(int64(rows))
		s.binaryBytes.Add(bytes)
		return
	}
	s.ndjsonRequests.Add(1)
	s.ndjsonRows.Add(int64(rows))
	s.ndjsonBytes.Add(bytes)
}

// RecordTiming appends one request's delay summary to the window.
func (s *Stats) RecordTiming(firstAnswer, maxDelay time.Duration) {
	s.mu.Lock()
	s.ring[s.next] = reqTiming{firstAnswer: firstAnswer, maxDelay: maxDelay}
	s.next = (s.next + 1) % delayWindow
	if s.n < delayWindow {
		s.n++
	}
	s.mu.Unlock()
}

// DelayPercentiles summarises per-request delays over the stats window, in
// nanoseconds: FirstAnswer is the time to the first streamed answer,
// InterAnswerMax the worst inter-answer gap within a request.
type DelayPercentiles struct {
	Window            int   `json:"window"`
	FirstAnswerP50    int64 `json:"first_answer_p50_ns"`
	FirstAnswerP95    int64 `json:"first_answer_p95_ns"`
	FirstAnswerP99    int64 `json:"first_answer_p99_ns"`
	InterAnswerMaxP50 int64 `json:"inter_answer_max_p50_ns"`
	InterAnswerMaxP95 int64 `json:"inter_answer_max_p95_ns"`
	InterAnswerMaxP99 int64 `json:"inter_answer_max_p99_ns"`
}

// CacheStats is a point-in-time snapshot of cache counters (the wire shape
// of both the plan cache and the bind cache in /stats).
type CacheStats = vcache.Stats

// Snapshot is the GET /stats response body.
type Snapshot struct {
	Requests         int64 `json:"requests"`
	Errors           int64 `json:"errors"`
	AnswersStreamed  int64 `json:"answers_streamed"`
	StreamsCompleted int64 `json:"streams_completed"`
	// RequestsCancelled counts streams cut short by the client going away
	// (context cancellation or a failed write): the enumeration ended
	// without a trailer.
	RequestsCancelled int64      `json:"requests_cancelled"`
	PlansPrepared     int64      `json:"plans_prepared"`
	Cache             CacheStats `json:"cache"`
	// BindCache counts the catalog's bind cache: misses are Theorem 12
	// preprocessing runs for dataset queries, hits are dataset binds served
	// without one.
	BindCache CacheStats `json:"bind_cache"`
	// Datasets gauges every registered dataset (sorted by name).
	Datasets []DatasetGauge   `json:"datasets,omitempty"`
	Delays   DelayPercentiles `json:"delays"`
	// Wire breaks streaming traffic down by negotiated answer encoding and
	// surfaces the admission gate's gauges.
	Wire WireSnapshot `json:"wire"`
	// Subscriptions is the live-subscription section: the /subscribe gate's
	// gauges plus the incremental-maintenance counters.
	Subscriptions SubscriptionsSnapshot `json:"subscriptions"`
	// Storage is the durability section; nil unless the server was opened
	// with a data directory, keeping the plain in-memory /stats body
	// byte-identical.
	Storage *StorageSnapshot `json:"storage,omitempty"`
}

// WireSnapshot is the wire section of GET /stats: per-encoding traffic
// counters plus the streaming admission gate.
type WireSnapshot struct {
	// NDJSONRequests/BinaryRequests count finished streaming responses by
	// negotiated encoding; rows and bytes are the answers and socket bytes
	// they carried (bytes measured under the stream buffer, so they are
	// what actually left the process).
	NDJSONRequests int64 `json:"ndjson_requests"`
	BinaryRequests int64 `json:"binary_requests"`
	NDJSONRows     int64 `json:"ndjson_rows"`
	BinaryRows     int64 `json:"binary_rows"`
	NDJSONBytes    int64 `json:"ndjson_bytes"`
	BinaryBytes    int64 `json:"binary_bytes"`
	// StreamsActive/StreamsQueued gauge the admission semaphore;
	// StreamsShed counts requests rejected with 429 at the queue deadline.
	StreamsActive int64 `json:"streams_active"`
	StreamsQueued int64 `json:"streams_queued"`
	StreamsShed   int64 `json:"streams_shed"`
	// MaxStreams is the gate's concurrency cap (2×GOMAXPROCS).
	MaxStreams int `json:"max_streams"`
	// SubscriptionsActive/SubscriptionsShed gauge the separate /subscribe
	// admission gate; MaxSubscriptions is its cap. Subscriptions never
	// consume MaxStreams slots — the two gates are independent, so
	// long-lived subscribers cannot starve one-shot query streams.
	SubscriptionsActive int64 `json:"subscriptions_active"`
	SubscriptionsShed   int64 `json:"subscriptions_shed"`
	MaxSubscriptions    int   `json:"max_subscriptions"`
}

// SubscriptionsSnapshot is the subscriptions section of GET /stats:
// incremental answer maintenance observed from the server side.
type SubscriptionsSnapshot struct {
	// Active gauges the currently-connected subscriptions; Started counts
	// every subscription admitted since the process started.
	Active  int64 `json:"active"`
	Started int64 `json:"started"`
	// DeltasEvaluated counts delta windows evaluated on behalf of
	// subscribers (one per append batch a subscriber caught up over);
	// AnswersPushed counts the new answers those evaluations pushed.
	DeltasEvaluated int64 `json:"deltas_evaluated"`
	AnswersPushed   int64 `json:"answers_pushed"`
	// Resyncs counts the times a subscriber was degraded to a full
	// re-enumeration because the dataset's append log no longer covered its
	// catch-up window (slow consumer, Replace, or log compaction).
	Resyncs int64 `json:"resyncs"`
	// MaxSubscriptions is the gate's concurrency cap.
	MaxSubscriptions int `json:"max_subscriptions"`
}

// StorageSnapshot is the storage section of GET /stats: the durable
// store's journal gauges.
type StorageSnapshot struct {
	// DataDir is the journal directory.
	DataDir string `json:"data_dir,omitempty"`
	// Datasets counts datasets with open durable state.
	Datasets int `json:"datasets"`
	// Recovered counts datasets replayed from the journal at startup;
	// TornTails counts invalid WAL tails truncated while doing so.
	Recovered int64 `json:"recovered"`
	TornTails int64 `json:"torn_tails"`
	// WALRecords/WALBytes count acknowledged journal appends;
	// SnapshotWrites counts snapshot installations.
	WALRecords     int64 `json:"wal_records"`
	WALBytes       int64 `json:"wal_bytes"`
	SnapshotWrites int64 `json:"snapshot_writes"`
}

// DatasetGauge is one registered dataset's /stats entry.
type DatasetGauge struct {
	Name      string `json:"name"`
	Version   uint64 `json:"version"`
	Rows      int    `json:"rows"`
	Relations int    `json:"relations"`
	// Queries counts POST /datasets/{name}/query requests admitted for
	// this dataset since it was registered.
	Queries int64 `json:"queries"`
}

// delays computes the percentile summary over the current window.
func (s *Stats) delays() DelayPercentiles {
	s.mu.Lock()
	first := make([]int64, 0, s.n)
	inter := make([]int64, 0, s.n)
	for i := 0; i < s.n; i++ {
		first = append(first, int64(s.ring[i].firstAnswer))
		inter = append(inter, int64(s.ring[i].maxDelay))
	}
	s.mu.Unlock()
	out := DelayPercentiles{Window: len(first)}
	if len(first) == 0 {
		return out
	}
	sort.Slice(first, func(i, j int) bool { return first[i] < first[j] })
	sort.Slice(inter, func(i, j int) bool { return inter[i] < inter[j] })
	out.FirstAnswerP50 = percentile(first, 50)
	out.FirstAnswerP95 = percentile(first, 95)
	out.FirstAnswerP99 = percentile(first, 99)
	out.InterAnswerMaxP50 = percentile(inter, 50)
	out.InterAnswerMaxP95 = percentile(inter, 95)
	out.InterAnswerMaxP99 = percentile(inter, 99)
	return out
}

// percentile reads the p-th percentile from a sorted slice.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
