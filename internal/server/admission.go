package server

// Admission control for streaming requests: a bounded semaphore of
// 2×GOMAXPROCS slots gates every answer-streaming handler (inline /query,
// dataset queries). A request that cannot get a slot queues for at most
// queueDeadline and is then shed with 429 + Retry-After — overload
// degrades into fast, explicit rejections the client can back off from,
// instead of every stream slowing down together as they share the CPUs.
// Count-only requests are not gated: they hold no enumeration resources
// worth queueing for.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// errStreamShed reports an admission queue deadline expiry.
var errStreamShed = errors.New("server: streaming admission queue deadline expired")

// admission is the streaming-concurrency gate.
type admission struct {
	sem      chan struct{}
	deadline time.Duration

	active atomic.Int64
	queued atomic.Int64
	shed   atomic.Int64
}

func newAdmission(maxStreams int, deadline time.Duration) *admission {
	return &admission{sem: make(chan struct{}, maxStreams), deadline: deadline}
}

// acquire takes a streaming slot, queueing up to the deadline. It returns
// errStreamShed on deadline expiry and the context error if the client
// went away while queued. A nil return must be paired with release.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
		a.active.Add(1)
		return nil
	default:
	}
	a.queued.Add(1)
	defer a.queued.Add(-1)
	timer := time.NewTimer(a.deadline)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		a.active.Add(1)
		return nil
	case <-timer.C:
		a.shed.Add(1)
		return errStreamShed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) release() {
	a.active.Add(-1)
	<-a.sem
}

// admitStream acquires a streaming slot for this request, writing the shed
// response itself on failure. ok=false means the response is already
// handled; on ok=true the caller must s.admission.release() when the
// stream ends.
func (s *Server) admitStream(w http.ResponseWriter, r *http.Request) bool {
	return s.admit(w, r, s.admission,
		"server is at its concurrent stream limit; retry later")
}

// admitSubscription is admitStream for the separate /subscribe gate: its
// cap (maxSubscriptions) and its shed reason are distinct, so a client can
// tell which limit it hit, and saturated subscriptions never consume a
// stream slot (or vice versa).
func (s *Server) admitSubscription(w http.ResponseWriter, r *http.Request) bool {
	return s.admit(w, r, s.subAdmission,
		"server is at its concurrent subscription limit; retry later")
}

func (s *Server) admit(w http.ResponseWriter, r *http.Request, a *admission, shedMsg string) bool {
	err := a.acquire(r.Context())
	switch {
	case err == nil:
		return true
	case errors.Is(err, errStreamShed):
		// Shed: tell the client when to come back. Not counted as a server
		// error — the whole point is that rejection here is healthy.
		retryAfter := int(a.deadline / time.Second)
		if retryAfter < 1 {
			retryAfter = 1
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: shedMsg})
		return false
	default:
		// The client gave up while queued.
		s.stats.requestsCancelled.Add(1)
		return false
	}
}
