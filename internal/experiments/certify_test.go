package experiments

import (
	"context"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/core"
	"relatch/internal/vlib"
)

// TestCertifyAllApproaches retimes every seed benchmark under every
// approach and requires the independent certifier to come back clean:
// the solver stack must never emit a placement whose labels, structure,
// ED classification or cost accounting the static analysis can fault.
// Large profiles are skipped in -short mode to keep the quick loop
// quick; the full sweep runs in CI's race job and via make certify.
func TestCertifyAllApproaches(t *testing.T) {
	lib := cell.Default(1.0)
	const overhead = 0.5
	ctx := context.Background()

	for _, prof := range bench.ISCAS89 {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			if testing.Short() && prof.Gates > 1000 {
				t.Skipf("skipping %d-gate profile in short mode", prof.Gates)
			}
			t.Parallel()
			seq, err := prof.BuildSeq(lib)
			if err != nil {
				t.Fatal(err)
			}
			c, scheme, err := prof.CutAndCalibrate(seq)
			if err != nil {
				t.Fatal(err)
			}

			// Every approach certifies inside its RetimeCtx: the post-solve
			// gate fails the call itself when findings surface, and the
			// certificate rides on the result.
			check := func(name string, res *core.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Certificate == nil {
					t.Fatalf("%s: result carries no certificate", name)
				}
				if !res.Certificate.Certified() {
					t.Fatalf("%s: not certified: %v", name, res.Certificate.Findings)
				}
			}
			copt := core.Options{Scheme: scheme, EDLCost: overhead}
			for _, ap := range []core.Approach{core.ApproachGRAR, core.ApproachBase} {
				res, err := core.RetimeCtx(ctx, c, copt, ap)
				check(ap.String(), res, err)
			}
			vopt := vlib.Options{Scheme: scheme, EDLCost: overhead, PostSwap: true}
			for _, v := range []vlib.Variant{vlib.NVL, vlib.EVL, vlib.RVL} {
				res, err := vlib.RetimeCtx(ctx, c, vopt, v)
				check(v.String(), res, err)
			}
		})
	}
}
