package bench

import "testing"

func TestXDomainPipelineHandsOff(t *testing.T) {
	op, s := xdomainPipelineOp(true)
	for i := 0; i < 10; i++ {
		op()
	}
	st := s.StatsAggregate()
	if want := int64(10 * xdomainHops); st.XDomainHandoffs != want {
		t.Fatalf("XDomainHandoffs = %d, want %d (every link, every op)", st.XDomainHandoffs, want)
	}
	if st.XDomainFallbacks != 0 {
		t.Fatalf("XDomainFallbacks = %d on an idle pipeline", st.XDomainFallbacks)
	}
	if st.Generic != 0 {
		t.Fatalf("merged pipeline took %d generic dispatches", st.Generic)
	}
}
