package experiments

import (
	"strings"

	"repro/internal/classify"
	"repro/internal/paper"
)

// E9ClassifyGallery reproduces the paper's verdict on every worked example
// — the headline classification table.
func E9ClassifyGallery(Config) Table {
	t := Table{
		ID:    "E9",
		Title: "classification of every worked example in the paper",
		Paper: "Examples 1–39 with Theorems 3/4/12/17/29/33/35 and Lemmas 14/15",
		Claim: "the classifier reproduces the paper's verdict wherever it follows from a general theorem, and honestly reports Unknown on the ad-hoc and open cases",
		Columns: []string{
			"example", "paper verdict", "paper coverage", "classifier verdict", "classifier reason", "agreement",
		},
	}
	for _, ex := range paper.Gallery() {
		res, err := classify.ClassifyUCQ(ex.Query())
		if err != nil {
			t.Rows = append(t.Rows, []string{ex.Ref, ex.Verdict, ex.Coverage.String(), "ERROR", err.Error(), check(false)})
			continue
		}
		agree := false
		switch ex.Coverage {
		case paper.GeneralTheorem:
			agree = res.Verdict.String() == ex.Verdict
		case paper.AdHoc, paper.Open:
			// The classifier implements the general theorems only; Unknown
			// is the correct (and honest) output here.
			agree = res.Verdict == classify.Unknown
		}
		verdict := ex.Verdict
		if len(ex.Hypotheses) > 0 {
			verdict += " (" + strings.Join(ex.Hypotheses, ", ") + ")"
		}
		got := res.Verdict.String()
		if len(res.Hypotheses) > 0 {
			got += " (" + strings.Join(res.Hypotheses, ", ") + ")"
		}
		t.Rows = append(t.Rows, []string{
			ex.Ref, verdict, ex.Coverage.String(), got, shorten(res.Reason, 80), check(agree),
		})
	}
	t.Notes = append(t.Notes,
		"Ad-hoc rows (Examples 31, 37, 39) are proved intractable by example-specific reductions the paper itself presents outside its general theorems; experiments E5–E8 execute those reductions.",
		"Open rows (Examples 30, 38) are cases the paper explicitly leaves unresolved (Section 5).")
	return t
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
