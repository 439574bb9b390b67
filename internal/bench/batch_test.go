package bench

import "testing"

func TestBatchPipeWorkloadCoalesces(t *testing.T) {
	entries, s, err := BatchPipeWorkload(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no trace entries recorded")
	}
	st := s.StatsAggregate()
	if st.Coalesced == 0 || st.CoalesceFallbacks == 0 {
		t.Fatalf("workload must exercise both branches: Coalesced=%d Fallbacks=%d",
			st.Coalesced, st.CoalesceFallbacks)
	}
}
