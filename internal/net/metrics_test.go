package net

import (
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// TestDeclareMetricsSinks checks that the fabric declares each metric only
// on the sinks that export it: nothing at all with no sink armed, the
// flight series in their registration order with only the flight ring, and
// no rate series on the report sweep.
func TestDeclareMetricsSinks(t *testing.T) {
	eng, nw := testNet(t, 2, 2, 1)
	fabricPorts := 2*2 + 2*2 // leaf uplinks + spine downlinks

	if a := testing.AllocsPerRun(10, func() { nw.DeclareMetrics(telemetry.Plane{}) }); a != 0 {
		t.Fatalf("unarmed plane: %v allocs per declaration, want 0", a)
	}

	fl := timeseries.NewRecorder(eng, 0, 0)
	nw.DeclareMetrics(telemetry.Plane{Flight: fl})
	names := fl.ProbeNames()
	if len(names) != 4+5*fabricPorts {
		t.Fatalf("flight probes = %d, want %d: %v", len(names), 4+5*fabricPorts, names)
	}
	head := []string{
		"net.tx_gbps", "net.goodput_gbps", "net.drops_total", "net.ecn_marks_total",
		"net.port.queue_bytes{port=leaf0->spine0.0}", "net.port.queue_peak_bytes{port=leaf0->spine0.0}",
		"net.port.util{port=leaf0->spine0.0}", "net.port.ecn_mark_rate{port=leaf0->spine0.0}",
		"net.port.drop_rate{port=leaf0->spine0.0}",
	}
	for i, want := range head {
		if names[i] != want {
			t.Fatalf("flight probe %d = %q, want %q (order: %v)", i, names[i], want, names[:len(head)])
		}
	}

	rd := telemetry.NewRunData(eng, sim.Millisecond)
	nw.DeclareMetrics(telemetry.Plane{Run: rd})
	reported := rd.Sweep.ProbeNames()
	if len(reported) != 5+6*fabricPorts {
		t.Fatalf("report probes = %d, want %d", len(reported), 5+6*fabricPorts)
	}
	for _, name := range reported {
		if strings.Contains(name, "_rate") || strings.Contains(name, "gbps") || strings.Contains(name, "peak") {
			t.Errorf("report sweep got flight-only series %q", name)
		}
	}
}
