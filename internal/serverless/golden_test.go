package serverless

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"amoeba/internal/arrival"
	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/sim"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// memCheck is a sink that asserts the pool's memory invariant,
// memMB ≤ usableMemMB, at every event the platform emits.
type memCheck struct {
	t *testing.T
	p *Platform
}

func (m memCheck) Consume(obs.Event) { m.check() }

func (m memCheck) check() {
	m.t.Helper()
	if usable := m.p.usableMemMB().Raw(); m.p.memMB > usable {
		m.t.Fatalf("t=%v: pool memory %v MB exceeds usable %v MB", m.p.sim.Now(), m.p.memMB, usable)
	}
}

// multiFunctionRun drives four functions through a memory-tight pool:
// diurnal arrivals that fill the pool and force cross-function eviction,
// a dd burst past the bounded queue, a warm-pool floor, explicit
// prewarms, and ReleaseIdle calls that free memory while a backlog is
// queued. It returns the SHA-256 of the JSONL event stream (phase spans
// included) and the platform.
func multiFunctionRun(t *testing.T) (string, *Platform) {
	s := sim.New(0x5E12)
	cfg := DefaultConfig()
	cfg.Node.MemMB = 3072 // ten 256-MB containers after the 10% reserve
	cfg.MaxQueue = 60
	p := New(s, cfg)
	bus := obs.NewBus()
	h := sha256.New()
	w := obs.NewJSONLWriter(h)
	mc := memCheck{t: t, p: p}
	bus.Attach(w)
	bus.Attach(mc)
	p.SetBus(bus)
	p.SetTracer(obs.NewTracer(bus))

	submitted, completed, rejected := 0, 0, 0
	done := func(metrics.QueryRecord) { completed++; mc.check() }
	onReject := WithRejectHandler(func() { rejected++; mc.check() })
	p.Register(workload.Float(), done, WithMinWarm(2), onReject)
	p.Register(workload.DD(), done, WithNMax(3), onReject)
	p.Register(workload.CloudStor(), done, onReject)
	p.Register(workload.Matmul(), done, WithNMax(4), onReject)

	invoke := func(name string) {
		submitted++
		p.Invoke(name)
		mc.check()
	}
	var gens []*arrival.Generator
	for i, fn := range []struct {
		name        string
		peak, floor float64
	}{
		{"float", 8, 1},
		{"dd", 6, 1},
		{"cloud_stor", 4, 0.5},
		{"matmul", 4, 0.5},
	} {
		name := fn.name
		g := arrival.New(s, trace.NewDiurnal(fn.peak, fn.floor, 240, uint64(i+1)),
			func(sim.Time) { invoke(name) })
		g.Start()
		gens = append(gens, g)
	}
	script := func(at sim.Time, fn func()) {
		s.At(at, func() { fn(); mc.check() })
	}
	script(50, func() { p.Prewarm("cloud_stor", 3, nil) })
	script(120, func() {
		for i := 0; i < 90; i++ {
			invoke("dd")
		}
	})
	script(121, func() { p.ReleaseIdle("matmul") })
	script(180, func() { p.ReleaseIdle("float") })
	script(300, func() { p.Prewarm("matmul", 5, nil) })
	script(310, func() {
		for i := 0; i < 40; i++ {
			invoke("matmul")
		}
		p.ReleaseIdle("cloud_stor")
	})
	script(480, func() {
		for _, g := range gens {
			g.Stop()
		}
	})
	s.Run(900)

	if err := w.Err(); err != nil {
		t.Fatalf("event stream: %v", err)
	}
	if submitted != completed+rejected {
		t.Fatalf("conservation: submitted %d != completed %d + rejected %d", submitted, completed, rejected)
	}
	if p.QueueLength() != 0 {
		t.Fatalf("%d activations still queued after the drain", p.QueueLength())
	}
	return hex.EncodeToString(h.Sum(nil)), p
}

// TestGoldenMultiFunctionStream pins the platform's byte-exact event
// stream under multi-function contention. Every feature the dispatcher
// interacts with must actually fire, or the digest would pin less than
// it claims.
func TestGoldenMultiFunctionStream(t *testing.T) {
	const want = "cad1a5812201ecef662aafe92f6f9f495d81585fe5ea2acf67b79d241c1e8fdc"
	got, p := multiFunctionRun(t)
	if p.Evictions() == 0 {
		t.Error("no cross-function eviction")
	}
	if p.Rejected("dd") == 0 {
		t.Error("the dd burst never hit the bounded queue")
	}
	if got != want {
		t.Errorf("event stream sha256 = %s, want %s", got, want)
	}
}
