package ucq

import (
	"errors"
	"testing"

	"repro/internal/workload"
)

// TestPlanOptionsValidation: invalid combinations are rejected with a typed
// OptionsError instead of degrading to a silent sequential run.
func TestPlanOptionsValidation(t *testing.T) {
	u := MustParse("Q(x) <- R1(x,y).")
	inst := workload.RandomForQuery(u, 10, 5, 1)
	cases := []struct {
		name string
		opts *PlanOptions
	}{
		{name: "naive-and-constant-delay", opts: &PlanOptions{ForceNaive: true, RequireConstantDelay: true}},
		{name: "auto-and-workers", opts: &PlanOptions{Auto: true, Workers: 2}},
		{name: "negative-workers", opts: &PlanOptions{Workers: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPlan(u, inst, tc.opts)
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			var oe *OptionsError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionsError", err)
			}
			if oe.Field == "" || oe.Reason == "" {
				t.Fatalf("OptionsError missing detail: %+v", oe)
			}
		})
	}
	// The valid combinations still plan.
	for _, opts := range []*PlanOptions{
		nil,
		{Workers: 1},
		{Auto: true},
		{Workers: 8},
	} {
		if _, err := NewPlan(u, inst, opts); err != nil {
			t.Fatalf("valid options %+v rejected: %v", opts, err)
		}
	}
}
