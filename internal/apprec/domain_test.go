package apprec

import (
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/workload"
)

// TestDomainMixSweep drives the application-recovery domain through every
// built-in scenario mix with interleaved forces, minimal installs, and
// purges, then a forced crash: recovery must reproduce the driver's model
// byte-for-byte and no staging object may survive.
func TestDomainMixSweep(t *testing.T) {
	for _, mixName := range workload.MixNames() {
		t.Run(mixName, func(t *testing.T) {
			mix, err := workload.ParseMix(mixName)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.New(core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			Register(eng.Registry())
			dom := NewDomain(eng, "ap")
			drv, err := workload.NewMixDriver(mix, 0xa7c)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 160; step++ {
				switch {
				case step%3 == 1:
					err = eng.Log().Force()
				case step%4 == 2:
					err = eng.InstallOne()
				case step%23 == 19:
					err = eng.FlushAll()
				}
				if err == nil {
					err = drv.Step(dom)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if err := eng.Log().Force(); err != nil {
				t.Fatal(err)
			}
			eng.Crash()
			if _, err := eng.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := drv.Verify(dom); err != nil {
				t.Fatalf("recovered state diverges from the mix model: %v", err)
			}
			if err := dom.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDomainServesDuringRedo crashes an application-recovery mix run and
// reopens it with on-demand recovery: application state reads must be
// byte-correct while chains are still draining, and the transient staging
// objects must not resurface.
func TestDomainServesDuringRedo(t *testing.T) {
	mix, err := workload.ParseMix("scan-heavy")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	dom := NewDomain(eng, "ap")
	drv, err := workload.NewMixDriver(mix, 0xa7d)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Steps(dom, 120); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.RecoverOnDemand(); err != nil {
		t.Fatal(err)
	}
	if err := drv.Verify(dom); err != nil {
		t.Fatalf("mid-drain state diverges from the mix model: %v", err)
	}
	if err := dom.Check(); err != nil {
		t.Fatal(err)
	}
}
