package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/database"
	"repro/internal/wire"
)

// scatterClient issues calls against workers and decodes their answer
// streams into tuples. The coordinator⇄worker hop is entirely under our
// control, so it speaks the binary columnar encoding only: a worker that
// answers in anything else is misconfigured or not a worker, and its call
// fails loudly (and fails over) rather than being parsed on a guess. One
// call is one HTTP request; the gather layer decides what to do with
// markers, retries and re-splits.
type scatterClient struct {
	hc *http.Client
	// stall is the per-worker deadline, expressed as the longest the client
	// will wait for the next byte of stream progress. A worker that is slow
	// but flowing never trips it; a frozen worker does, and its call is
	// cancelled so the remaining range can be re-issued elsewhere. It is
	// deliberately not a whole-call timeout — a large range legitimately
	// takes long.
	stall time.Duration
}

// errShed is the internal sentinel scatterClient.run returns when the
// chunk callback asked to stop the call (a straggler re-split truncated
// its range): the caller re-issues the truncated range, nothing failed.
var errShed = errors.New("cluster: call shed at marker")

// workerError is a non-200 response from a worker, carrying the status so
// the coordinator can distinguish version conflicts (409) from transport
// trouble.
type workerError struct {
	worker string
	status int
	msg    string
}

func (e *workerError) Error() string {
	return fmt.Sprintf("cluster: worker %s: %d: %s", e.worker, e.status, e.msg)
}

// WorkerStatus extracts the HTTP status of a worker-reported failure, so
// callers can propagate client-level statuses (400, 404, 409) instead of
// flattening everything to a gateway error.
func WorkerStatus(err error) (int, bool) {
	var we *workerError
	if errors.As(err, &we) {
		return we.status, true
	}
	return 0, false
}

// post issues one POST with a JSON body, asking for the binary encoding,
// and returns the response. Non-200 responses are drained, decoded and
// returned as *workerError.
func (sc *scatterClient) post(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.MediaTypeBinary)
	resp, err := sc.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var we struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if raw, err := io.ReadAll(io.LimitReader(resp.Body, 4096)); err == nil {
			if json.Unmarshal(raw, &we) == nil && we.Error != "" {
				msg = we.Error
			}
		}
		return nil, &workerError{worker: url, status: resp.StatusCode, msg: msg}
	}
	return resp, nil
}

// stream is the one way the coordinator reads a worker: it POSTs body to
// worker+path and walks the binary answer stream that comes back, handing
// every frame to onFrame. The walk ends when onFrame returns stop = true (a
// probe stops at the header), at the trailer frame — which must be
// done:true without an error — or with the first error; stream returns nil
// only in the first two cases, so a caller that saw the trailer knows the
// worker delivered everything it was asked for.
//
// The stall watchdog cancels the call when the worker makes no progress for
// sc.stall. It is armed before the POST — a worker frozen before it even
// sends response headers must trip the same deadline — and then only while
// we wait on the worker: it is stopped around onFrame, so coordinator-side
// backpressure (a slow consumer blocking chunk delivery) never counts
// against the worker.
func (sc *scatterClient) stream(ctx context.Context, worker, path string, body []byte, onFrame func(*wire.Frame) (stop bool, err error)) (err error) {
	callCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stalled atomic.Bool
	watchdog := time.AfterFunc(sc.stall, func() {
		stalled.Store(true)
		cancel()
	})
	defer watchdog.Stop()
	// A watchdog trip surfaces as a failed POST or a read error on the
	// cancelled body; name the stall instead. Sheds pass through.
	defer func() {
		if err != nil && err != errShed && stalled.Load() {
			err = fmt.Errorf("cluster: worker %s: stalled (no progress for %s)", worker, sc.stall)
		}
	}()

	resp, err := sc.post(callCtx, worker+path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !wire.IsBinary(ct) {
		return fmt.Errorf("cluster: worker %s: answered Content-Type %q, the scatter hop speaks only %s",
			worker, ct, wire.MediaTypeBinary)
	}
	dec := wire.NewDecoder(bufio.NewReaderSize(resp.Body, 64<<10))
	for {
		fr, err := dec.Next()
		watchdog.Stop()
		if err == io.EOF {
			return fmt.Errorf("cluster: worker %s: stream ended without a trailer", worker)
		}
		if err != nil {
			return fmt.Errorf("cluster: worker %s: reading stream: %v", worker, err)
		}
		if tr := fr.Trailer; tr != nil {
			if tr.Error != "" {
				return fmt.Errorf("cluster: worker %s: stream error: %s", worker, tr.Error)
			}
			if !tr.Done {
				return fmt.Errorf("cluster: worker %s: trailer without done", worker)
			}
		}
		stop, err := onFrame(fr)
		if err != nil {
			return err
		}
		watchdog.Reset(sc.stall)
		if stop || fr.Trailer != nil {
			// Drain the framing tail to EOF (the re-armed watchdog bounds
			// it) so the transport can reuse this connection for the
			// worker's next call instead of dialing fresh every time.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return nil
		}
	}
}

// scatterHeader decodes and checks the ScatterHeader a worker's header
// frame carries.
func scatterHeader(worker string, fr *wire.Frame) (*ScatterHeader, error) {
	var hdr ScatterHeader
	if err := json.Unmarshal(fr.Meta, &hdr); err != nil || !hdr.Header {
		return nil, fmt.Errorf("cluster: worker %s: malformed scatter header meta %q", worker, fr.Meta)
	}
	if hdr.Arity != fr.Arity {
		return nil, fmt.Errorf("cluster: worker %s: header arity %d disagrees with frame arity %d",
			worker, hdr.Arity, fr.Arity)
	}
	return &hdr, nil
}

// probe asks one worker for a scatter header without enumerating: the
// coordinator learns RootLen, the answer arity, whether the plan is
// scatterable, and the plan/bind provenance of the probed worker. A probe
// response is the header frame and nothing else; the stall deadline bounds
// the call, so a frozen worker cannot wedge query admission.
func (sc *scatterClient) probe(ctx context.Context, worker, dataset string, req *ScatterRequest) (*ScatterHeader, error) {
	pr := *req
	pr.Probe = true
	var hdr *ScatterHeader
	// The decoder guarantees the first frame is the header.
	err := sc.stream(ctx, worker, "/datasets/"+dataset+"/scatter", pr.Encode(), func(fr *wire.Frame) (stop bool, err error) {
		hdr, err = scatterHeader(worker, fr)
		return true, err
	})
	return hdr, err
}

// run issues one scatter call and walks its stream. onChunk is invoked at
// every progress point — each marker and the trailer — with the answers
// decoded since the previous one (possibly none) and the root progress;
// returning stop=true cancels the call mid-stream and run returns
// errShed. run returns nil only when the trailer was reached, so the
// caller knows the whole [RootLo, RootHi) range was delivered.
// expectRootLen guards against inconsistent replicas: a worker whose plan
// disagrees on the root domain must not contribute answers. The wire
// decoder enforces the frame grammar (header first, checksums, arity
// agreement); this enforces the scatter protocol on top of it.
func (sc *scatterClient) run(ctx context.Context, worker, dataset string, req *ScatterRequest, expectRootLen int, onChunk func(tuples []database.Tuple, rootDone int) (stop bool)) error {
	var tuples []database.Tuple
	progress := req.RootLo
	// advance validates a root_done checkpoint and hands over the chunk.
	advance := func(rootDone uint64) (stop bool, err error) {
		if rootDone > uint64(expectRootLen) || int(rootDone) < progress {
			return false, fmt.Errorf("cluster: worker %s: root progress %d after %d in a domain of %d",
				worker, rootDone, progress, expectRootLen)
		}
		progress = int(rootDone)
		stop = onChunk(tuples, progress)
		tuples = nil
		return stop, nil
	}
	return sc.stream(ctx, worker, "/datasets/"+dataset+"/scatter", req.Encode(), func(fr *wire.Frame) (bool, error) {
		switch fr.Kind {
		case wire.KindHeader:
			hdr, err := scatterHeader(worker, fr)
			if err != nil {
				return false, err
			}
			if !hdr.Scatterable {
				return false, fmt.Errorf("cluster: worker %s: plan is not scatterable", worker)
			}
			if hdr.RootLen != expectRootLen {
				return false, fmt.Errorf("cluster: worker %s: root domain %d disagrees with probe %d (inconsistent replica?)",
					worker, hdr.RootLen, expectRootLen)
			}
		case wire.KindBlock:
			tuples = append(tuples, fr.Tuples...)
		case wire.KindMarker:
			stop, err := advance(fr.Marker)
			if stop && err == nil {
				err = errShed
			}
			return false, err
		case wire.KindTrailer:
			_, err := advance(uint64(fr.Trailer.RootDone))
			return false, err
		}
		return false, nil
	})
}
