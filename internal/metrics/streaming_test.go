package metrics

import "testing"

func record(latency float64) QueryRecord {
	return QueryRecord{Service: "svc", Breakdown: Breakdown{Exec: latency}}
}

// TestWindowP95PerWindow checks that each closed window carries its own
// p95 — the estimator resets at window boundaries instead of bleeding
// one window's tail into the next.
func TestWindowP95PerWindow(t *testing.T) {
	w := NewWindowedViolations(10, 1.0)
	// Window [0,10): constant 0.5s latencies.
	for i := 0; i < 20; i++ {
		w.Observe(float64(i)/2, record(0.5))
	}
	// Window [10,20): constant 2.0s latencies.
	for i := 0; i < 20; i++ {
		w.Observe(10+float64(i)/2, record(2.0))
	}
	ws := w.Windows(20)
	if len(ws) != 2 {
		t.Fatalf("closed %d windows, want 2", len(ws))
	}
	if ws[0].P95 != 0.5 {
		t.Errorf("window 0 p95 = %v, want 0.5", ws[0].P95)
	}
	if ws[1].P95 != 2.0 {
		t.Errorf("window 1 p95 = %v, want 2.0 (estimator not reset?)", ws[1].P95)
	}
}

// TestWindowP95EmptyWindow pins the zero p95 on query-free windows.
func TestWindowP95EmptyWindow(t *testing.T) {
	w := NewWindowedViolations(5, 1.0)
	w.Observe(1, record(3.0))
	// Nothing between t=5 and t=25.
	w.Observe(26, record(0.4))
	ws := w.Windows(30)
	if len(ws) != 6 {
		t.Fatalf("closed %d windows, want 6", len(ws))
	}
	if ws[0].P95 != 3.0 {
		t.Errorf("window 0 p95 = %v, want 3.0", ws[0].P95)
	}
	for i := 1; i < 5; i++ {
		if ws[i].Queries != 0 || ws[i].P95 != 0 {
			t.Errorf("empty window %d = %+v, want zero queries and zero p95", i, ws[i])
		}
	}
	if ws[5].P95 != 0.4 {
		t.Errorf("window 5 p95 = %v, want 0.4", ws[5].P95)
	}
}
