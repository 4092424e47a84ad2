package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
)

func TestUnionPlanExplain(t *testing.T) {
	u := cq.MustParse(example2)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("no certificate")
	}
	inst := randomInstance(u, rand.New(rand.NewSource(12)), 20, 4)
	plan, err := bindUnion(u, cert, inst)
	if err != nil {
		t.Fatalf("bindUnion: %v", err)
	}
	ex := plan.Explain()
	for _, want := range []string{
		"Theorem 12 union plan",
		"certified extensions",
		"provider runs",
		"dedup by membership",
		"elimination log",
		"top join tree",
	} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
}

// TestUnionPlanExplainRankRule pins how Explain reports each member's
// rank rule: Example 2's member 1 by marks against member 0 in two copies
// with no probe, Example 13's member 2 by marks against member 1 in three
// copies and probes of member 0's two tops.
func TestUnionPlanExplainRankRule(t *testing.T) {
	for _, tc := range []struct {
		src    string
		member int
		want   []string
	}{
		{example2, 1, []string{
			"dedup by row marks: members 0 (2 copies,",
			"dedup by index probes: none (at most 0 per answer)",
		}},
		{example13, 2, []string{
			"dedup by row marks: members 1 (3 copies,",
			"dedup by index probes: members 0 (at most 2 per answer)",
		}},
	} {
		u := cq.MustParse(tc.src)
		cert, ok := FindCertificate(u, nil)
		if !ok {
			t.Fatalf("no certificate for\n%s", u)
		}
		plan, err := bindUnion(u, cert, randomInstance(u, rand.New(rand.NewSource(12)), 20, 4))
		if err != nil {
			t.Fatal(err)
		}
		ex := plan.Explain()
		section := ex[strings.Index(ex, fmt.Sprintf("-- member %d --", tc.member)):]
		if next := strings.Index(section[1:], "-- member"); next >= 0 {
			section = section[:next+1]
		}
		for _, want := range tc.want {
			if !strings.Contains(section, want) {
				t.Errorf("%s member %d: Explain lacks %q in\n%s", u.CQs[0].Name, tc.member, want, section)
			}
		}
	}
}

func TestNewUnionPlanErrors(t *testing.T) {
	u := cq.MustParse(example2)
	cert, _ := FindCertificate(u, nil)
	// Missing relations surface as errors, not panics.
	if _, err := bindUnion(u, cert, database.NewInstance()); err == nil {
		t.Errorf("empty instance accepted")
	}
	// Invalid certificate is rejected before any evaluation.
	bad := &Certificate{}
	if _, err := bindUnion(u, bad, database.NewInstance()); err == nil {
		t.Errorf("empty certificate accepted")
	}
}

func TestFindCertificateRejectsInvalidUnion(t *testing.T) {
	if _, ok := FindCertificate(&cq.UCQ{}, nil); ok {
		t.Errorf("empty union certified")
	}
}

func TestCertificateStringAndCounts(t *testing.T) {
	u := cq.MustParse(example13)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatalf("no certificate")
	}
	if cert.TotalVirtualAtoms() < 3 {
		t.Errorf("Example 13 needs at least one virtual atom per CQ, got %d", cert.TotalVirtualAtoms())
	}
	s := cert.String()
	if !strings.Contains(s, "_P") {
		t.Errorf("certificate string lacks virtual atoms:\n%s", s)
	}
	// Extensions stringify as their queries.
	if cert.Extensions[0].String() == "" {
		t.Errorf("empty extension string")
	}
}

func TestSearchOptionsDefaults(t *testing.T) {
	var o *SearchOptions
	d := o.defaults(3)
	if d.MaxVirtualAtoms != 3 || d.MaxRounds != 8 || d.MaxCandidates != 160 {
		t.Errorf("defaults = %+v", d)
	}
	custom := (&SearchOptions{MaxVirtualAtoms: 1, MaxRounds: 2, MaxCandidates: 10}).defaults(3)
	if custom.MaxVirtualAtoms != 1 || custom.MaxRounds != 2 || custom.MaxCandidates != 10 {
		t.Errorf("custom = %+v", custom)
	}
}

func TestPrioritizeCandidatesCap(t *testing.T) {
	u := cq.MustParse(example2)
	hc := newHomCache(u)
	ext := []*ExtendedCQ{plainSnapshot(u, 0), plainSnapshot(u, 1)}
	cands := generateCandidates(u, ext, hc, 0)
	if len(cands) == 0 {
		t.Fatalf("no candidates for Q1")
	}
	capped := prioritizeCandidates(u.CQs[0], cands, 1)
	if len(capped) != 1 {
		t.Fatalf("cap not applied: %d", len(capped))
	}
	// The top-ranked candidate should touch the free-path {x,z,y}.
	touches := false
	for _, v := range capped[0].vars {
		if v == "z" {
			touches = true
		}
	}
	if !touches {
		t.Errorf("top candidate %v does not touch the free-path variable z", capped[0].vars)
	}
}
