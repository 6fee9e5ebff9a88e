package serverless

import (
	"fmt"
	"testing"

	"amoeba/internal/metrics"
	"amoeba/internal/sim"
	"amoeba/internal/workload"
)

// BenchmarkServerlessBacklog measures dispatch cost per activation
// behind a standing FIFO backlog. Four functions are capped at one
// container each; the queue is filled to the given depth, and every
// completion re-invokes its function, so the depth holds steady while
// the benchmark runs. One op is one dispatched activation: the Invoke
// that refills the queue plus the pump that places the next head.
func BenchmarkServerlessBacklog(b *testing.B) {
	for _, depth := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			s := sim.New(0xBAC)
			p := New(s, DefaultConfig())
			profs := []workload.Profile{workload.Float(), workload.DD(), workload.CloudStor(), workload.Matmul()}
			done := 0
			for _, prof := range profs {
				name := prof.Name
				p.Register(prof, func(metrics.QueryRecord) {
					done++
					if done == b.N {
						s.Halt()
					}
					p.Invoke(name)
				}, WithNMax(1))
			}
			for i := 0; i < depth+len(profs); i++ {
				p.Invoke(profs[i%len(profs)].Name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(sim.Time(1e12))
			b.StopTimer()
			if done < b.N {
				b.Fatalf("only %d of %d activations completed", done, b.N)
			}
			if got := p.QueueLength(); got != depth {
				b.Fatalf("queue depth drifted to %d, want %d", got, depth)
			}
		})
	}
}
