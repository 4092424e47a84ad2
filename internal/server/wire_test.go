package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestNegotiateEncoding is the Accept matrix: the binary encoding must be
// named exactly and strictly preferred to win; everything else — absent
// headers, wildcards, unknown media types, ties, malformed q-values —
// keeps the NDJSON default.
func TestNegotiateEncoding(t *testing.T) {
	bin, text := wire.MediaTypeBinary, wire.MediaTypeNDJSON
	cases := []struct {
		accept string
		want   string
	}{
		{"", text},
		{text, text},
		{bin, bin},
		{"*/*", text},
		{"application/*", text},
		{"application/json", text},
		{"text/html, application/xhtml+xml", text},
		// Exact name beats nothing else being named.
		{bin + ";q=0.5", bin},
		// q=0 is an explicit refusal.
		{bin + ";q=0", text},
		// Strictly higher q wins; ties go to NDJSON.
		{bin + ";q=0.9, " + text + ";q=0.5", bin},
		{bin + ";q=0.5, " + text + ";q=0.9", text},
		{bin + ";q=0.5, " + text + ";q=0.5", text},
		// Wildcards count toward NDJSON: "anything" means "what you already
		// speak", not an opt-in to a binary format the client never named.
		{bin + ";q=0.5, */*", text},
		{bin + ", */*;q=0.1", bin},
		// Malformed q: the entry is ignored.
		{bin + ";q=banana", text},
		{bin + ";q=2", text},
		{bin + ";q=banana, " + bin + ";q=0.8", bin},
		// Case-insensitive media type, whitespace tolerated.
		{" Application/X-UCQ-BIN ;q=1", bin},
	}
	for _, c := range cases {
		if got := negotiateEncoding(c.accept); got != c.want {
			t.Errorf("negotiateEncoding(%q) = %q, want %q", c.accept, got, c.want)
		}
	}
}

// postAccept sends a QueryRequest with an explicit Accept header.
func postAccept(t *testing.T, url, accept string, req QueryRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if accept != "" {
		hr.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readBinaryStream decodes a binary frame response: answer rows then the
// trailer frame.
func readBinaryStream(t *testing.T, resp *http.Response) ([][]int64, wire.Trailer) {
	t.Helper()
	defer resp.Body.Close()
	dec := wire.NewDecoder(resp.Body)
	var answers [][]int64
	var tr wire.Trailer
	sawTrailer := false
	for {
		fr, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decoding frame: %v", err)
		}
		switch fr.Kind {
		case wire.KindBlock:
			if sawTrailer {
				t.Fatal("block after trailer")
			}
			for _, tup := range fr.Tuples {
				row := make([]int64, len(tup))
				for i, v := range tup {
					row[i] = int64(v)
				}
				answers = append(answers, row)
			}
		case wire.KindTrailer:
			tr = *fr.Trailer
			sawTrailer = true
		}
	}
	if !sawTrailer {
		t.Fatal("stream ended without a trailer frame")
	}
	return answers, tr
}

// TestQueryBinaryEncoding checks the tentpole end to end on /query: a
// binary-accepting client gets frames whose decoded answer set and
// trailer match the NDJSON stream exactly.
func TestQueryBinaryEncoding(t *testing.T) {
	_, ts := newTestServer(t)
	req := QueryRequest{Query: example2, Relations: smallRelations()}

	ndResp := post(t, ts.URL, req)
	wantAnswers, wantTr := readStream(t, ndResp)

	resp := postAccept(t, ts.URL, wire.MediaTypeBinary, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != wire.MediaTypeBinary {
		t.Fatalf("Content-Type = %q, want %q", got, wire.MediaTypeBinary)
	}
	answers, tr := readBinaryStream(t, resp)

	sortRows(answers)
	sortRows(wantAnswers)
	if fmt.Sprint(answers) != fmt.Sprint(wantAnswers) {
		t.Errorf("binary answers = %v, want %v", answers, wantAnswers)
	}
	if !tr.Done || tr.Count != wantTr.Count || tr.Mode != wantTr.Mode || tr.Cache == "" {
		t.Errorf("binary trailer = %+v, want fields of %+v", tr, wantTr)
	}
}

// TestQueryUnknownAcceptFallsBack: a client asking for some other media
// type still gets the NDJSON stream, not an error.
func TestQueryUnknownAcceptFallsBack(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postAccept(t, ts.URL, "application/protobuf, image/png;q=0.5",
		QueryRequest{Query: example2, Relations: smallRelations()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != wire.MediaTypeNDJSON {
		t.Fatalf("Content-Type = %q, want NDJSON fallback", got)
	}
	answers, tr := readStream(t, resp)
	if len(answers) != 6 || !tr.Done {
		t.Fatalf("fallback stream broken: %d answers, trailer %+v", len(answers), tr)
	}
}

// TestAdmissionShed checks the gate's HTTP behaviour: with every slot
// held, a streaming request is shed with 429 + Retry-After within the
// queue deadline, and served again once a slot frees up.
func TestAdmissionShed(t *testing.T) {
	s, ts := newTestServer(t, func(s *Server) { s.admission = newAdmission(1, 50*time.Millisecond) })

	// Occupy the only slot directly — deterministic, no reliance on write
	// backpressure to park a real stream.
	if err := s.admission.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	resp := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations()})
	elapsed := time.Since(start)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Errorf("shed body: %v / %+v", err, er)
	}
	if elapsed > 5*time.Second {
		t.Errorf("shed took %v; the request stalled instead of shedding at the deadline", elapsed)
	}

	// Shedding is overload management, not a server error.
	snap := s.StatsSnapshot()
	if snap.Errors != 0 {
		t.Errorf("errors = %d after a shed, want 0", snap.Errors)
	}
	if snap.Wire.StreamsShed != 1 {
		t.Errorf("streams_shed = %d, want 1", snap.Wire.StreamsShed)
	}
	if snap.Wire.MaxStreams != 1 {
		t.Errorf("max_streams = %d, want 1", snap.Wire.MaxStreams)
	}

	s.admission.release()
	resp2 := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations()})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", resp2.StatusCode)
	}
	answers, _ := readStream(t, resp2)
	if len(answers) != 6 {
		t.Fatalf("answers after release = %d, want 6", len(answers))
	}
}

// TestAdmissionQueueThenServe: a request that queues behind a slot
// released before the deadline is served normally, not shed.
func TestAdmissionQueueThenServe(t *testing.T) {
	s, ts := newTestServer(t, func(s *Server) { s.admission = newAdmission(1, 2*time.Second) })
	if err := s.admission.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		s.admission.release()
	}()
	resp := post(t, ts.URL, QueryRequest{Query: example2, Relations: smallRelations()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 after the queued slot freed", resp.StatusCode)
	}
	answers, tr := readStream(t, resp)
	if len(answers) != 6 || !tr.Done {
		t.Fatalf("queued request broken: %d answers, trailer %+v", len(answers), tr)
	}
	if shed := s.StatsSnapshot().Wire.StreamsShed; shed != 0 {
		t.Errorf("streams_shed = %d, want 0", shed)
	}
}

// TestWireStatsCounters: /stats breaks streamed traffic down by the
// encoding that carried it.
func TestWireStatsCounters(t *testing.T) {
	s, ts := newTestServer(t)
	req := QueryRequest{Query: example2, Relations: smallRelations()}

	nd := post(t, ts.URL, req)
	readStream(t, nd)
	bin := postAccept(t, ts.URL, wire.MediaTypeBinary, req)
	readBinaryStream(t, bin)

	w := s.StatsSnapshot().Wire
	if w.NDJSONRequests != 1 || w.BinaryRequests != 1 {
		t.Fatalf("request counts = %d ndjson / %d binary, want 1/1", w.NDJSONRequests, w.BinaryRequests)
	}
	if w.NDJSONRows != 6 || w.BinaryRows != 6 {
		t.Errorf("row counts = %d ndjson / %d binary, want 6/6", w.NDJSONRows, w.BinaryRows)
	}
	if w.NDJSONBytes <= 0 || w.BinaryBytes <= 0 {
		t.Errorf("byte counts = %d ndjson / %d binary, want both > 0", w.NDJSONBytes, w.BinaryBytes)
	}
	// A stream holds its admission slot until its handler returns, which
	// can trail the client's read of the trailer: wait for the drain.
	deadline := time.Now().Add(5 * time.Second)
	for w.StreamsActive != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		w = s.StatsSnapshot().Wire
	}
	if w.StreamsActive != 0 || w.StreamsQueued != 0 {
		t.Errorf("gauges after idle = active %d queued %d, want 0/0", w.StreamsActive, w.StreamsQueued)
	}
}

// TestInt64ExtremesRoundTrip: a row holding int64's extremes is accepted
// inline by POST /query and by a PUT append, and streams back unchanged in
// both encodings.
func TestInt64ExtremesRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	row := []int64{math.MinInt64, math.MaxInt64}
	query := "Q(x,y) <- R(x,y)."
	for _, media := range encodings {
		got, tr := fetch(t, ts.URL, media, QueryRequest{Query: query, Relations: map[string][][]int64{"R": {row}}})
		if !tr.Done || len(got) != 1 || !slices.Equal(got[0], row) {
			t.Errorf("%s: /query streamed %v (trailer %+v), want [%v]", media, got, tr, row)
		}
	}

	putDataset(t, ts.URL, "d", map[string][][]int64{"R": {{1, 2}}})
	resp := do(t, http.MethodPut, ts.URL+"/datasets/d", DatasetRequest{Relations: map[string][][]int64{"R": {row}}, Append: true})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT append: status %d", resp.StatusCode)
	}
	body, err := json.Marshal(QueryRequest{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	for _, media := range encodings {
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/datasets/d/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Accept", media)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]int64
		if media == wire.MediaTypeBinary {
			got, _ = readBinaryStream(t, resp)
		} else {
			got, _ = readStream(t, resp)
		}
		sortRows(got)
		if want := [][]int64{row, {1, 2}}; !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s: dataset query streamed %v, want %v", media, got, want)
		}
	}
}
