package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// Topology: the coordinator runs against a static list of worker base
// URLs (dynamic membership is future work, see ROADMAP). Workers are
// normalized to scheme://host[:port] form so that "w1:8454",
// "http://w1:8454" and "http://w1:8454/" name the same node.

// NormalizeWorkers canonicalizes a list of worker specs: a bare host:port
// gains the http scheme, trailing slashes are stripped, and empties and
// duplicates are rejected.
func NormalizeWorkers(specs []string) ([]string, error) {
	out := make([]string, 0, len(specs))
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		w, err := normalizeWorker(spec)
		if err != nil {
			return nil, err
		}
		if seen[w] {
			return nil, fmt.Errorf("cluster: duplicate worker %q", w)
		}
		seen[w] = true
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	return out, nil
}

// normalizeWorker canonicalizes one worker spec.
func normalizeWorker(spec string) (string, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return "", fmt.Errorf("cluster: empty worker spec")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("cluster: worker spec %q: %v", spec, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: worker spec %q: scheme must be http or https", spec)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: worker spec %q has no host", spec)
	}
	if u.Path != "" && u.Path != "/" {
		return "", fmt.Errorf("cluster: worker spec %q must be a base URL without a path", spec)
	}
	return u.Scheme + "://" + u.Host, nil
}

// ParseWorkerList splits a comma-separated -workers flag value and
// normalizes each entry.
func ParseWorkerList(s string) ([]string, error) {
	var specs []string
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		specs = append(specs, part)
	}
	return NormalizeWorkers(specs)
}

// rendezvousOrder returns the workers sorted by descending rendezvous
// weight for a key — highest-random-weight hashing over StableStringHash,
// so every coordinator instance computes the same preference order. The
// head of the order is the key's "owner": the worker probed first and the
// fallback target for non-scatterable queries, keeping a warm plan/bind
// cache for the pair instead of spraying identical work across all nodes.
func rendezvousOrder(workers []string, key string) []string {
	type weighted struct {
		w     string
		score uint64
	}
	ws := make([]weighted, len(workers))
	for i, w := range workers {
		ws[i] = weighted{w: w, score: StableStringHash(w + "\x00" + key)}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].score != ws[j].score {
			return ws[i].score > ws[j].score
		}
		return ws[i].w < ws[j].w
	})
	out := make([]string, len(ws))
	for i, x := range ws {
		out[i] = x.w
	}
	return out
}

// StableStringHash hashes a string as a pure function of its bytes — no
// per-process seed, no architecture dependence — so every coordinator
// instance agrees on rendezvous placement: FNV-1a over the bytes, finished
// with the avalanche mix the tuple hash uses, so short keys still spread
// over the full 64-bit range. topology_test.go pins exact output vectors:
// a change here silently moves every dataset's owner.
func StableStringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// The same finalizer as database.Tuple.Hash: MurmurHash3's fmix64.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
