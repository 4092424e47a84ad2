package ucq

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLISmoke builds and exercises the command-line tools end to end.
// Skipped in -short mode (it shells out to the Go toolchain).
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test shells out to go run")
	}
	dir := t.TempDir()

	queryPath := filepath.Join(dir, "query.ucq")
	if err := os.WriteFile(queryPath, []byte(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string]string{
		"R1": "1,2\n4,2\n",
		"R2": "2,3\n",
		"R3": "3,5\n3,6\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// ucq-classify reports a tractable verdict with a certificate.
	out, err := exec.Command("go", "run", "./cmd/ucq-classify", "-v", queryPath).CombinedOutput()
	if err != nil {
		t.Fatalf("ucq-classify: %v\n%s", err, out)
	}
	for _, want := range []string{"verdict: tractable", "Theorem 12", "certificate"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("ucq-classify output missing %q:\n%s", want, out)
		}
	}

	// ucq-classify exits 1 on intractable queries.
	cmd := exec.Command("go", "run", "./cmd/ucq-classify")
	cmd.Stdin = strings.NewReader("Q(x,y) <- R(x,z), S(z,y).")
	out, err = cmd.CombinedOutput()
	if err == nil {
		t.Errorf("ucq-classify should exit non-zero on intractable queries:\n%s", out)
	}
	if !strings.Contains(string(out), "verdict: intractable") {
		t.Errorf("ucq-classify output missing intractable verdict:\n%s", out)
	}

	// ucq-run streams the union's answers.
	out, err = exec.Command("go", "run", "./cmd/ucq-run",
		"-q", queryPath,
		"-r", "R1="+filepath.Join(dir, "R1.csv"),
		"-r", "R2="+filepath.Join(dir, "R2.csv"),
		"-r", "R3="+filepath.Join(dir, "R3.csv"),
		"-count",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("ucq-run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "constant-delay evaluation") {
		t.Errorf("ucq-run did not use the constant-delay engine:\n%s", out)
	}
	// No -workers: the cost model decides and reports the worker count.
	if !strings.Contains(string(out), "auto decision: sequential (workers=0)") {
		t.Errorf("ucq-run did not report the auto decision:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if lines[len(lines)-1] != "6" {
		t.Errorf("ucq-run count = %q, want 6\n%s", lines[len(lines)-1], out)
	}

	// -workers alone selects the executor (no decision is made), which
	// counts the same answer set.
	out, err = exec.Command("go", "run", "./cmd/ucq-run",
		"-q", queryPath,
		"-r", "R1="+filepath.Join(dir, "R1.csv"),
		"-r", "R2="+filepath.Join(dir, "R2.csv"),
		"-r", "R3="+filepath.Join(dir, "R3.csv"),
		"-count", "-workers", "2",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("ucq-run -workers: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "auto decision") {
		t.Errorf("ucq-run -workers reported an auto decision:\n%s", out)
	}
	lines = strings.Split(strings.TrimSpace(string(out)), "\n")
	if lines[len(lines)-1] != "6" {
		t.Errorf("ucq-run -workers count = %q, want 6\n%s", lines[len(lines)-1], out)
	}

	// -dataset routes the same evaluation through the catalog BindDataset
	// path (with the instance loaded from a JSON file).
	instPath := filepath.Join(dir, "inst.json")
	if err := os.WriteFile(instPath, []byte(`{"R1": [[1,2],[4,2]], "R2": [[2,3]], "R3": [[3,5],[3,6]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command("go", "run", "./cmd/ucq-run",
		"-q", queryPath,
		"-dataset", "smoke="+instPath,
		"-count",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("ucq-run -dataset: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "dataset smoke v1") {
		t.Errorf("ucq-run -dataset did not report the dataset binding:\n%s", out)
	}
	lines = strings.Split(strings.TrimSpace(string(out)), "\n")
	if lines[len(lines)-1] != "6" {
		t.Errorf("ucq-run -dataset count = %q, want 6\n%s", lines[len(lines)-1], out)
	}

	// -workers with -limit abandons the stream mid-way; the process must
	// still exit cleanly (workers are released, not leaked).
	out, err = exec.Command("go", "run", "./cmd/ucq-run",
		"-q", queryPath,
		"-r", "R1="+filepath.Join(dir, "R1.csv"),
		"-r", "R2="+filepath.Join(dir, "R2.csv"),
		"-r", "R3="+filepath.Join(dir, "R3.csv"),
		"-workers", "2", "-limit", "1",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("ucq-run -workers -limit: %v\n%s", err, out)
	}

	// ucq-experiments -quick renders the full document.
	out, err = exec.Command("go", "run", "./cmd/ucq-experiments", "-quick").CombinedOutput()
	if err != nil {
		t.Fatalf("ucq-experiments: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "## E9 ") || strings.Contains(string(out), "MISMATCH") {
		t.Errorf("ucq-experiments output malformed")
	}
}

// TestServeSmoke builds and runs the ucq-serve binary and exercises the
// streaming endpoint over a real socket. Skipped in -short mode.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("server smoke test shells out to the Go toolchain")
	}
	bin := filepath.Join(t.TempDir(), "ucq-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/ucq-serve").CombinedOutput(); err != nil {
		t.Fatalf("go build ucq-serve: %v\n%s", err, out)
	}

	// Reserve a free port; the gap between Close and the server's Listen
	// is benign for a test on loopback.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	base := "http://" + addr
	ready := false
	for i := 0; i < 150; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			ready = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ready {
		t.Fatal("ucq-serve did not become ready")
	}

	body := `{"query": "Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w). Q2(x,y,w) <- R1(x,y), R2(y,w).",
		"relations": {"R1": [[1,2],[4,2]], "R2": [[2,3]], "R3": [[3,5],[3,6]]}}`
	for i, wantCache := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out := string(raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d\n%s", i, resp.StatusCode, out)
		}
		want := fmt.Sprintf(`{"done":true,"count":6,"mode":"constant-delay","cache":%q}`, wantCache)
		if !strings.Contains(out, want) {
			t.Errorf("request %d: response missing trailer %s:\n%s", i, want, out)
		}
	}

	// Dataset walkthrough over the real socket: register once, query
	// twice, observe the bind-cache hit in /stats.
	put, err := http.NewRequest(http.MethodPut, base+"/datasets/e2e", strings.NewReader(
		`{"relations": {"R1": [[1,2],[4,2]], "R2": [[2,3]], "R3": [[3,5],[3,6]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /datasets/e2e: status %d", resp.StatusCode)
	}
	dsQuery := `{"query": "Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w). Q2(x,y,w) <- R1(x,y), R2(y,w)."}`
	for i, wantBind := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/datasets/e2e/query", "application/json", strings.NewReader(dsQuery))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dataset query %d: status %d\n%s", i, resp.StatusCode, raw)
		}
		if want := fmt.Sprintf(`"bind":%q`, wantBind); !strings.Contains(string(raw), want) {
			t.Errorf("dataset query %d: trailer missing %s:\n%s", i, want, raw)
		}
	}
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		BindCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"bind_cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BindCache.Hits != 1 || stats.BindCache.Misses != 1 {
		t.Errorf("bind cache over the socket = %+v, want 1 hit / 1 miss", stats.BindCache)
	}
}

// TestServeGracefulShutdown builds and runs ucq-serve, opens a streaming
// request over a large instance, and sends SIGTERM mid-stream: the server
// must cancel the in-flight enumeration through the context plumbing (the
// stream ends without a trailer) and exit promptly instead of waiting out
// the full enumeration. Skipped in -short mode.
func TestServeGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("server shutdown e2e shells out to the Go toolchain")
	}
	bin := filepath.Join(t.TempDir(), "ucq-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/ucq-serve").CombinedOutput(); err != nil {
		t.Fatalf("go build ucq-serve: %v\n%s", err, out)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	base := "http://" + addr
	ready := false
	for i := 0; i < 150; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			ready = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ready {
		t.Fatal("ucq-serve did not become ready")
	}

	// A 1.44M-answer star join: plenty of stream left when the signal
	// lands.
	const side = 1200
	rels := map[string][][]int64{"R": {}, "S": {}}
	for i := int64(0); i < side; i++ {
		rels["R"] = append(rels["R"], []int64{i, 0})
		rels["S"] = append(rels["S"], []int64{0, i})
	}
	body, err := json.Marshal(map[string]any{
		"query":     "Q(x,z,y) <- R(x,z), S(z,y).",
		"relations": rels,
		"options":   map[string]any{"workers": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first answer: %v", err)
	}
	if strings.HasPrefix(first, "{") {
		t.Fatalf("first line is a trailer, stream finished too fast: %s", first)
	}

	// Signal mid-stream; the server must go down well before the full
	// enumeration could stream out.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	// The in-flight stream is cancelled: it ends (EOF or reset) without
	// the done trailer.
	sawTrailer := false
	lines := 1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			break
		}
		lines++
		if strings.HasPrefix(line, "{") && strings.Contains(line, `"done":true`) {
			sawTrailer = true
		}
	}
	if sawTrailer {
		t.Errorf("cancelled stream still delivered a completion trailer after %d lines", lines)
	}
	if lines >= side*side/2 {
		t.Errorf("stream delivered %d answers after SIGTERM (of %d total)", lines, side*side)
	}

	select {
	case <-exited:
		// Graceful exit, stream cancelled: done.
	case <-time.After(15 * time.Second):
		t.Fatal("ucq-serve did not exit within 15s of SIGTERM")
	}
}

// TestServeSubscribeCLI runs the subscription protocol over a real socket
// through the built binaries: ucq-serve hosts a dataset, ucq-run
// -subscribe prints the initial answers, a PUT append lands while the
// subscription is live, and the pushed delta answer carries the client to
// its -limit, at which point it exits cleanly. Skipped in -short mode.
func TestServeSubscribeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subscribe CLI e2e shells out to the Go toolchain")
	}
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "ucq-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "./cmd/ucq-serve").CombinedOutput(); err != nil {
		t.Fatalf("go build ucq-serve: %v\n%s", err, out)
	}
	runBin := filepath.Join(dir, "ucq-run")
	if out, err := exec.Command("go", "build", "-o", runBin, "./cmd/ucq-run").CombinedOutput(); err != nil {
		t.Fatalf("go build ucq-run: %v\n%s", err, out)
	}
	queryPath := filepath.Join(dir, "sub.ucq")
	if err := os.WriteFile(queryPath, []byte("Q(x,y,z) <- R(x,y), S(y,z).\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	serve := exec.Command(serveBin, "-addr", addr)
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		serve.Process.Kill()
		serve.Wait()
	}()
	base := "http://" + addr
	ready := false
	for i := 0; i < 150; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			ready = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !ready {
		t.Fatal("ucq-serve did not become ready")
	}

	put := func(body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, base+"/datasets/edges", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT /datasets/edges: status %d", resp.StatusCode)
		}
	}
	put(`{"relations": {"R": [[1,10],[2,20]], "S": [[10,100],[20,200]]}}`)

	// -limit 3: two initial answers plus the one the append pushes.
	sub := exec.Command(runBin, "-q", queryPath, "-remote", base, "-dataset", "edges", "-subscribe", "-limit", "3")
	var stdout, stderr strings.Builder
	sub.Stdout = &stdout
	sub.Stderr = &stderr
	if err := sub.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if killed {
			return
		}
		sub.Process.Kill()
		sub.Wait()
	}()

	// Only append once the server reports the live subscription, so the
	// delta is pushed rather than folded into the initial set.
	subscribed := false
	for i := 0; i < 150; i++ {
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Subscriptions struct {
				Active int64 `json:"active"`
			} `json:"subscriptions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Subscriptions.Active >= 1 {
			subscribed = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !subscribed {
		t.Fatal("subscription never showed up in /stats")
	}
	put(`{"relations": {"R": [[3,10]]}, "append": true}`)

	done := make(chan error, 1)
	go func() { done <- sub.Wait() }()
	select {
	case err := <-done:
		killed = true
		if err != nil {
			t.Fatalf("ucq-run -subscribe: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("ucq-run -subscribe did not reach -limit within 30s\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}

	lines := strings.Fields(strings.TrimSpace(stdout.String()))
	want := map[string]bool{"1,10,100": false, "2,20,200": false, "3,10,100": false}
	if len(lines) != 3 {
		t.Fatalf("stdout = %q, want exactly 3 answers", lines)
	}
	for _, line := range lines {
		if _, ok := want[line]; !ok {
			t.Errorf("unexpected answer line %q", line)
		}
		want[line] = true
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing answer %s", k)
		}
	}
	if !strings.Contains(stderr.String(), "complete through v1") {
		t.Errorf("stderr missing the v1 version marker:\n%s", stderr.String())
	}
}
