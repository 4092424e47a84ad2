package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// bigStarRequest builds a /query body whose full star join has side²
// answers — enough that a stream is genuinely mid-enumeration when the
// client walks away.
func bigStarRequest(t *testing.T, side int64) []byte {
	t.Helper()
	rels := map[string][][]int64{"R": {}, "S": {}}
	for i := int64(0); i < side; i++ {
		rels["R"] = append(rels["R"], []int64{i, 0})
		rels["S"] = append(rels["S"], []int64{0, i})
	}
	body, err := json.Marshal(QueryRequest{
		Query:     "Q(x,z,y) <- R(x,z), S(z,y).",
		Relations: rels,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestClientDisconnectCancelsEnumeration cancels a streaming request after
// the first answer and checks the server releases the enumeration: the
// request is counted as cancelled, far fewer answers than the total were
// streamed, and the handler's goroutines are gone.
func TestClientDisconnectCancelsEnumeration(t *testing.T) {
	s, ts := newTestServer(t)
	const side = 1200 // 1.44M answers
	body := bigStarRequest(t, side)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first answer: %v", err)
	}
	// Walk away mid-stream.
	cancel()
	resp.Body.Close()

	// The handler notices the dead client, cancels the enumeration and
	// records the request as cancelled.
	deadline := time.Now().Add(10 * time.Second)
	for s.stats.requestsCancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("request was never counted as cancelled (stats %+v)", s.StatsSnapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := s.StatsSnapshot()
	if snap.StreamsCompleted != 0 {
		t.Errorf("cancelled stream counted as completed: %+v", snap)
	}
	if snap.AnswersStreamed >= side*side/2 {
		t.Errorf("server enumerated %d answers for a dead client (of %d)", snap.AnswersStreamed, side*side)
	}

	// The handler must return, not stay parked until process exit.
	for runtime.NumGoroutine() > baseline+5 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle after disconnect: %d vs %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsCountsCancelledRequests checks the /stats wire field.
func TestStatsCountsCancelledRequests(t *testing.T) {
	s, ts := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	body := bigStarRequest(t, 800)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for s.stats.requestsCancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("requests_cancelled never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The JSON snapshot carries the counter.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(sr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.RequestsCancelled < 1 {
		t.Errorf("stats requests_cancelled = %d, want ≥ 1", snap.RequestsCancelled)
	}
}
