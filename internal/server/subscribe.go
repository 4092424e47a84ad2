package server

// Live query subscriptions: POST /datasets/{name}/subscribe holds the
// connection open and keeps the client's answer set current across dataset
// versions. The stream opens with the full answer set at the bind version
// (or, with from_version, just the answers added since), then blocks on the
// dataset's subscription channel; every committed append wakes the loop,
// which pushes exactly the answers the append added
// (Plan.DeltaAnswersContext: semi-naive delta evaluation filtered through
// the certified plan's constant-time old-version membership test, or for a
// naive plan the difference of two naive evaluations), ending each batch
// with a version marker. UCQs are monotone, so appends never retract
// answers and maintenance is pure addition. The loop itself holds no
// answer state.
//
// Every wake-up re-binds the plan at the head version through the bind
// cache, which doubles as a pre-warm: by the time an ordinary query
// arrives for the new version, a subscriber has already paid its
// preprocessing miss.
//
// A subscriber that cannot keep up degrades to a resync, not to unbounded
// memory: wake-ups coalesce, the append log is bounded, and when the next
// catch-up window has been compacted away the server sends a resync marker
// followed by the full answer set at the head version.

import (
	"errors"
	"fmt"
	"net/http"

	ucq "repro"
	"repro/internal/wire"
)

// decodeSubscribe reads and validates a SubscribeRequest body.
func (s *Server) decodeSubscribe(w http.ResponseWriter, r *http.Request) (req SubscribeRequest, ok bool) {
	if !s.decodeBody(w, r, func(d *wire.Body) { decodeSubscribeRequest(d, &req) }) {
		return req, false
	}
	if req.Query == "" {
		s.httpError(w, http.StatusBadRequest, "query is required")
		return req, false
	}
	if req.Options.CountOnly {
		s.httpError(w, http.StatusBadRequest, "count_only is not valid on a subscription")
		return req, false
	}
	return req, true
}

// handleSubscribe is POST /datasets/{name}/subscribe.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	name := r.PathValue("name")

	req, ok := s.decodeSubscribe(w, r)
	if !ok {
		return
	}
	u, err := ucq.Parse(req.Query)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "parsing query: %v", err)
		return
	}
	mode := req.Options.Mode
	if mode == "" {
		mode = "auto"
	}
	if mode != "auto" && mode != "naive" {
		s.httpError(w, http.StatusBadRequest, "options.mode must be \"auto\" or \"naive\", got %q", mode)
		return
	}
	pq, hit, err := s.prepared(mode, u)
	if err != nil {
		s.planError(w, err)
		return
	}

	// The subscription gate, not the query-stream gate: long-lived
	// subscribers must never pin stream slots.
	if !s.admitSubscription(w, r) {
		return
	}
	defer s.subAdmission.release()

	// Register on the dataset BEFORE binding the initial plan: an append
	// committed after the bind's snapshot read is then guaranteed to leave
	// a pending wake-up, so the loop can never sleep through it.
	sub, err := s.catalog.Subscribe(name)
	if err != nil {
		s.httpError(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	defer sub.Close()
	ds := sub.Dataset()

	plan, err := pq.BindDatasetContext(r.Context(), ds)
	if err != nil {
		if r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		s.planError(w, err)
		return
	}

	media := negotiateEncoding(r.Header.Get("Accept"))
	enc, err := newAnswerEncoder(w, media, plan.Query.Arity())
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	cur := plan.DatasetVersion()
	w.Header().Set("Content-Type", enc.contentType())
	w.Header().Set("X-Ucq-Mode", plan.Mode.String())
	w.Header().Set("X-Ucq-Cache", cacheState(hit))
	w.Header().Set("X-Ucq-Bind", cacheState(plan.BindCacheHit()))
	w.Header().Set("X-Ucq-Dataset-Version", fmt.Sprint(cur))
	w.WriteHeader(http.StatusOK)
	s.stats.subsStarted.Add(1)

	// A stream that ends with a terminal record counts itself through
	// endStream before the record is flushed; every other exit — the
	// subscriber went away — is counted here.
	pushed, ended := 0, false
	defer func() {
		if !ended {
			s.stats.recordWire(media, pushed, enc.bytesOut())
		}
	}()

	var streamErr error
	push := func(t ucq.Tuple) bool {
		streamErr = send(enc, t, 1, &pushed)
		return streamErr == nil
	}
	// fail ends the subscription: silently when the subscriber went away,
	// with an error trailer when the server side broke mid-stream.
	fail := func(err error) {
		if errors.Is(err, errClientGone) || r.Context().Err() != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		s.stats.errors.Add(1)
		_ = enc.trailer(Trailer{
			Count:          pushed,
			Mode:           plan.Mode.String(),
			Cache:          cacheState(hit),
			Dataset:        name,
			DatasetVersion: cur,
			Error:          err.Error(),
		})
		ended = true
		s.endStream(enc, media, pushed)
	}
	// streamFull pushes p's complete answer set — the initial batch, and
	// the body of every resync.
	streamFull := func(p *ucq.Plan) error {
		it := p.AnswersContext(r.Context())
		defer it.Close()
		_, _, err := drain(r.Context(), it, enc, &pushed, 0)
		return err
	}

	// Initial batch: a from_version resume sends only the delta since the
	// client's version when the log still covers the window; everything
	// else (fresh subscribes, compacted windows, versions from the future)
	// sends the full set, prefixed by a resync marker when the client asked
	// to resume — it must discard its stale state first.
	resync := req.FromVersion != 0 && req.FromVersion != cur
	if resync && req.FromVersion < cur {
		err := plan.DeltaAnswersContext(r.Context(), req.FromVersion, cur, push)
		if streamErr != nil {
			fail(streamErr)
			return
		}
		switch {
		case err == nil:
			resync = false
		case errors.Is(err, ucq.ErrDeltaUnavailable):
			// Fall through to the resync below.
		default:
			fail(err)
			return
		}
	}
	if req.FromVersion == 0 || resync {
		if resync {
			s.stats.subsResyncs.Add(1)
			if err := enc.subscriptionMarker(cur, true); err != nil {
				s.stats.requestsCancelled.Add(1)
				return
			}
		}
		if err := streamFull(plan); err != nil {
			fail(err)
			return
		}
	}
	if err := enc.subscriptionMarker(cur, false); err != nil {
		s.stats.requestsCancelled.Add(1)
		return
	}
	if err := enc.flush(); err != nil {
		s.stats.requestsCancelled.Add(1)
		return
	}

	for {
		select {
		case <-r.Context().Done():
			s.stats.requestsCancelled.Add(1)
			return
		case <-sub.Updates():
		}
		// A wake-up can also mean the dataset was dropped (or dropped and
		// re-registered under the same name): the registration this
		// subscription rode on is gone, so the stream ends honestly.
		if cat, ok := s.catalog.Dataset(name); !ok || cat != ds {
			s.stats.streamsCompleted.Add(1)
			_ = enc.trailer(Trailer{
				Count:          pushed,
				Mode:           plan.Mode.String(),
				Cache:          cacheState(hit),
				Dataset:        name,
				DatasetVersion: cur,
				Error:          fmt.Sprintf("dataset %q was dropped", name),
			})
			ended = true
			s.endStream(enc, media, pushed)
			return
		}
		// Re-bind at the head through the shared bind cache — this is also
		// the pre-warm: the next ordinary query for this version binds hot.
		newPlan, err := pq.BindDatasetContext(r.Context(), ds)
		if err != nil {
			if r.Context().Err() != nil {
				s.stats.requestsCancelled.Add(1)
				return
			}
			fail(err)
			return
		}
		to := newPlan.DatasetVersion()
		if to <= cur {
			// Coalesced or stale wake-up; nothing new to push.
			continue
		}

		s.stats.deltasEvaluated.Add(1)
		before := pushed
		// The previous plan is bound at cur, so a certified one filters
		// through its own head indexes: exactly the answers versions
		// (cur, to] added.
		err = plan.DeltaAnswersContext(r.Context(), cur, to, push)
		if streamErr != nil {
			fail(streamErr)
			return
		}
		if errors.Is(err, ucq.ErrDeltaUnavailable) {
			// The log was compacted past our window (slow consumer) or
			// cleared by a Replace: degrade to a full resync at the head.
			s.stats.subsResyncs.Add(1)
			if err := enc.subscriptionMarker(to, true); err != nil {
				s.stats.requestsCancelled.Add(1)
				return
			}
			if err := streamFull(newPlan); err != nil {
				fail(err)
				return
			}
		} else if err != nil {
			fail(err)
			return
		}
		s.stats.deltaAnswersPushed.Add(int64(pushed - before))
		if err := enc.subscriptionMarker(to, false); err != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		if err := enc.flush(); err != nil {
			s.stats.requestsCancelled.Add(1)
			return
		}
		plan, cur = newPlan, to
	}
}
