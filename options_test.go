package ucq

import (
	"errors"
	"testing"

	"repro/internal/workload"
)

// TestPlanOptionsValidation: invalid combinations are rejected with a typed
// OptionsError instead of one option silently overriding the other.
func TestPlanOptionsValidation(t *testing.T) {
	u := MustParse("Q(x) <- R1(x,y).")
	inst := workload.RandomForQuery(u, 10, 5, 1)
	cases := []struct {
		name string
		opts *PlanOptions
	}{
		{name: "naive-and-constant-delay", opts: &PlanOptions{ForceNaive: true, RequireConstantDelay: true}},
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
		{ForceNaive: true},
		{RequireConstantDelay: true},
		{KeepRedundant: true},
	} {
		if _, err := NewPlan(u, inst, opts); err != nil {
			t.Fatalf("valid options %+v rejected: %v", opts, err)
		}
	}
}
