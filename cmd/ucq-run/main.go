// ucq-run evaluates a UCQ over relations loaded from CSV files and streams
// the answers. Certified free-connex queries run with the constant-delay
// engine; everything else falls back to the naive evaluator (reported on
// stderr).
//
// Usage:
//
//	ucq-run -q query.ucq -r R1=r1.csv -r R2=r2.csv [-limit N] [-mode auto|naive] [-dataset name[=instance.json]]
//
// CSV rows are comma/space/semicolon-separated integers; '#' starts a
// comment line.
//
// There is one enumeration path: each CQ of the union is enumerated in
// turn, skipping the answers an earlier CQ contains, on the main goroutine
// and in a deterministic answer order. With -count and no -limit,
// certified plans whose members probe no earlier member answer from the
// Theorem 12 counting passes without enumerating.
//
// With -remote URL the query is not evaluated locally: it is POSTed to a
// running ucq-serve instance (to /query with the -r relations inline, or
// to /datasets/{name}/query when -dataset names a server-side dataset)
// and the answer stream is decoded client-side. -wire picks the stream
// encoding to request: "binary" (the default — the compact columnar
// frames) or "ndjson".
//
// With -remote, -dataset and -subscribe the query becomes a live
// subscription: the server streams the dataset's current answer set, then
// pushes the answers every later append adds, punctuated by version
// markers (reported on stderr). -from-version resumes a previous
// subscription from the last marker it saw.
//
// With -dataset the relations are registered as a named dataset in an
// in-process catalog and the query is evaluated through
// Prepare/BindDataset — the same code path the server's
// /datasets/{name}/query endpoint uses — instead of the one-shot NewPlan.
// The form -dataset name=instance.json additionally loads the dataset
// from a JSON instance file ({"R": [[1,2],...], ...}); -r relations, if
// any, are added on top, replacing a same-named relation from the file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro"
)

// relFlags collects repeated -r name=path flags.
type relFlags map[string]string

func (r relFlags) String() string { return fmt.Sprint(map[string]string(r)) }

func (r relFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	r[name] = path
	return nil
}

func main() {
	rels := relFlags{}
	queryFile := flag.String("q", "", "query file (required)")
	flag.Var(rels, "r", "relation binding name=csv-path (repeatable)")
	limit := flag.Int("limit", 0, "stop after N answers (0 = all)")
	mode := flag.String("mode", "auto", "evaluation mode: auto | naive")
	countOnly := flag.Bool("count", false, "print only the answer count")
	dataset := flag.String("dataset", "", "register the instance as a catalog dataset `name[=instance.json]` and bind through it")
	remote := flag.String("remote", "", "evaluate against a running ucq-serve at this base `URL` instead of locally")
	wireFlag := flag.String("wire", "binary", "answer-stream encoding to request from -remote: binary | ndjson")
	subscribe := flag.Bool("subscribe", false, "subscribe to the dataset's live answer stream (requires -remote and -dataset): print the initial answers, then every answer later appends add")
	fromVersion := flag.Uint64("from-version", 0, "with -subscribe: resume from this dataset version — the initial batch is the delta since it instead of the full answer set")
	flag.Parse()

	if *queryFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*queryFile)
	if err != nil {
		fatal(err)
	}
	u, err := ucq.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	if *subscribe {
		dsName, _, _ := strings.Cut(*dataset, "=")
		if *remote == "" || dsName == "" {
			fatal(errors.New("-subscribe requires -remote and -dataset (the live stream is served by ucq-serve)"))
		}
		runSubscribe(*remote, *wireFlag, string(src), dsName, *mode, *limit, *fromVersion)
		return
	}
	if *remote != "" {
		runRemote(*remote, *wireFlag, string(src), rels, *dataset, *mode, *limit, *countOnly)
		return
	}

	inst := ucq.NewInstance()
	dsName, dsFile, _ := strings.Cut(*dataset, "=")
	if dsFile != "" {
		f, err := os.Open(dsFile)
		if err != nil {
			fatal(err)
		}
		loaded, err := ucq.ReadInstanceJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		inst = loaded
	}
	for name, path := range rels {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		rel, err := ucq.ReadRelationCSV(f, name)
		f.Close()
		if err != nil {
			fatal(err)
		}
		inst.AddRelation(rel)
	}

	plan, err := newPlan(u, inst, &ucq.PlanOptions{ForceNaive: *mode == "naive"}, dsName)
	if err != nil {
		fatal(err)
	}
	if dsName != "" {
		fmt.Fprintf(os.Stderr, "ucq-run: %s evaluation (dataset %s v%d)\n", plan.Mode, plan.DatasetName(), plan.DatasetVersion())
	} else {
		fmt.Fprintf(os.Stderr, "ucq-run: %s evaluation\n", plan.Mode)
	}

	// Count-only with no limit: certified plans whose members probe no
	// earlier member know their answer count from the counting passes —
	// skip the enumeration entirely.
	if *countOnly && *limit == 0 {
		if n, exact := plan.CountExact(); exact {
			fmt.Fprintln(os.Stderr, "ucq-run: count from counting pass (no enumeration)")
			fmt.Println(n)
			return
		}
	}

	it := plan.Iterator()
	n := 0
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		n++
		if !*countOnly {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, ","))
		}
		if *limit > 0 && n >= *limit {
			break
		}
	}
	if *countOnly {
		fmt.Println(n)
	}
}

// newPlan builds the evaluation: directly (the legacy one-shot path), or
// through a catalog dataset when -dataset is given — Prepare once,
// BindDataset against the registered snapshot, exactly the server's
// dataset code path.
func newPlan(u *ucq.UCQ, inst *ucq.Instance, opts *ucq.PlanOptions, dsName string) (*ucq.Plan, error) {
	if dsName == "" {
		return ucq.NewPlan(u, inst, opts)
	}
	pq, err := ucq.Prepare(u, opts)
	if err != nil {
		return nil, err
	}
	ds, err := ucq.NewCatalog().Register(dsName, inst)
	if err != nil {
		return nil, err
	}
	return pq.BindDataset(ds)
}

// runRemote POSTs the query to a ucq-serve instance and decodes the
// answer stream client-side with ucq.DecodeAnswerStream — the same helper
// the tests use, over whichever encoding -wire requested.
func runRemote(base, wireEnc, query string, rels relFlags, dataset string, mode string, limit int, countOnly bool) {
	var accept string
	switch wireEnc {
	case "binary":
		accept = ucq.MediaTypeBinary
	case "ndjson":
		accept = ucq.MediaTypeNDJSON
	default:
		fatal(fmt.Errorf("invalid -wire %q: want binary or ndjson", wireEnc))
	}

	relations := map[string][][]int64{}
	for name, path := range rels {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		rel, err := ucq.ReadRelationCSV(f, name)
		f.Close()
		if err != nil {
			fatal(err)
		}
		rows := make([][]int64, 0, rel.Len())
		for _, t := range rel.Rows() {
			row := make([]int64, len(t))
			for i, v := range t {
				row[i] = int64(v)
			}
			rows = append(rows, row)
		}
		relations[name] = rows
	}

	type queryOptions struct {
		Mode string `json:"mode,omitempty"`
	}
	body, err := json.Marshal(struct {
		Query     string               `json:"query"`
		Relations map[string][][]int64 `json:"relations,omitempty"`
		Options   queryOptions         `json:"options"`
		Limit     int                  `json:"limit,omitempty"`
	}{Query: query, Relations: relations, Options: queryOptions{Mode: mode}, Limit: limit})
	if err != nil {
		fatal(err)
	}

	url := strings.TrimSuffix(base, "/") + "/query"
	dsName, _, _ := strings.Cut(dataset, "=")
	if dsName != "" {
		if len(relations) > 0 {
			fatal(fmt.Errorf("-remote dataset queries run against the server's dataset; drop the -r flags"))
		}
		url = strings.TrimSuffix(base, "/") + "/datasets/" + dsName + "/query"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fatal(fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(raw))))
	}

	out := bufio.NewWriter(os.Stdout)
	n := 0
	var buf []byte
	tr, err := ucq.DecodeAnswerStream(resp.Body, resp.Header.Get("Content-Type"), func(t ucq.Tuple) bool {
		n++
		if !countOnly {
			buf = buf[:0]
			for i, v := range t {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, v.String()...)
			}
			buf = append(buf, '\n')
			out.Write(buf)
		}
		return true
	})
	if err != nil {
		out.Flush()
		fatal(err)
	}
	if tr != nil {
		if tr.Error != "" {
			out.Flush()
			fatal(fmt.Errorf("server stream failed after %d answers: %s", n, tr.Error))
		}
		fmt.Fprintf(os.Stderr, "ucq-run: %s evaluation via %s (%s)\n", tr.Mode, base, resp.Header.Get("Content-Type"))
	}
	if countOnly {
		fmt.Fprintln(out, n)
	}
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}

// runSubscribe opens a live subscription on a server-side dataset: POST
// /datasets/{name}/subscribe, decoded with ucq.DecodeSubscriptionStream.
// Answers go to stdout as they arrive; version markers and resyncs are
// reported on stderr. The stream runs until the server ends it, the
// connection drops, or -limit answers have been printed.
func runSubscribe(base, wireEnc, query, dsName, mode string, limit int, fromVersion uint64) {
	var accept string
	switch wireEnc {
	case "binary":
		accept = ucq.MediaTypeBinary
	case "ndjson":
		accept = ucq.MediaTypeNDJSON
	default:
		fatal(fmt.Errorf("invalid -wire %q: want binary or ndjson", wireEnc))
	}
	body, err := json.Marshal(struct {
		Query   string `json:"query"`
		Options struct {
			Mode string `json:"mode,omitempty"`
		} `json:"options"`
		FromVersion uint64 `json:"from_version,omitempty"`
	}{Query: query, Options: struct {
		Mode string `json:"mode,omitempty"`
	}{Mode: mode}, FromVersion: fromVersion})
	if err != nil {
		fatal(err)
	}
	url := strings.TrimSuffix(base, "/") + "/datasets/" + dsName + "/subscribe"
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fatal(fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(raw))))
	}
	fmt.Fprintf(os.Stderr, "ucq-run: subscribed to %s at %s (%s, %s evaluation, v%s)\n",
		dsName, base, resp.Header.Get("Content-Type"), resp.Header.Get("X-Ucq-Mode"),
		resp.Header.Get("X-Ucq-Dataset-Version"))

	n := 0
	var buf []byte
	tr, err := ucq.DecodeSubscriptionStream(resp.Body, resp.Header.Get("Content-Type"),
		func(t ucq.Tuple) bool {
			n++
			buf = buf[:0]
			for i, v := range t {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, v.String()...)
			}
			fmt.Println(string(buf))
			return limit <= 0 || n < limit
		},
		func(ev ucq.SubscriptionEvent) bool {
			if ev.Resync {
				fmt.Fprintf(os.Stderr, "ucq-run: resync: discarding state; full set at v%d follows\n", ev.Version)
				n = 0
			} else {
				fmt.Fprintf(os.Stderr, "ucq-run: complete through v%d (%d answers)\n", ev.Version, n)
			}
			return true
		})
	if err != nil {
		fatal(err)
	}
	if tr != nil && tr.Error != "" {
		fatal(fmt.Errorf("subscription ended by server after %d answers: %s", n, tr.Error))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ucq-run:", err)
	os.Exit(2)
}
