package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/workload"
)

// TestNewUnionPlanConcurrentReuse binds one compiled union to many
// distinct instances from concurrent goroutines and checks every binding
// enumerates the same answers as a sequential plan over the same instance.
// Run under -race, this pins down the contract that a compiled union — its
// certificate and every member's and provider's shape — is read-only after
// Compile: the invariant the server's prepared-plan cache relies on.
func TestNewUnionPlanConcurrentReuse(t *testing.T) {
	u := cq.MustParse(`
		Q1(x,y,w) <- R1(x,z), R2(z,y), R3(y,w).
		Q2(x,y,w) <- R1(x,y), R2(y,w).
	`)
	cert, ok := FindCertificate(u, nil)
	if !ok {
		t.Fatal("expected a certificate for Example 2")
	}
	c, err := Compile(u, cert)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const workers = 8
	const rounds = 4
	insts := make([]*database.Instance, workers)
	want := make([]int, workers)
	for i := range insts {
		insts[i] = workload.Example2Instance(20+4*i, 2, int64(100+i))
		p, err := c.Bind(ctx, insts[i])
		if err != nil {
			t.Fatalf("sequential plan %d: %v", i, err)
		}
		want[i] = p.Materialize().Len()
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p, err := c.Bind(ctx, insts[i])
				if err != nil {
					errs <- err
					return
				}
				if got := p.Materialize().Len(); got != want[i] {
					t.Errorf("worker %d round %d: %d answers, want %d", i, r, got, want[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Bind: %v", err)
	}
}
