package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	s := NewScenario(Mesh, 24, HotSpotTraffic, 0.004)
	s.HotSpots = []int{0, 13}
	s.Routing = "yx"
	s.Cols, s.Rows = 4, 6
	data, err := MarshalScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topo != s.Topo || got.Nodes != s.Nodes || got.Lambda != s.Lambda ||
		got.Routing != s.Routing || len(got.HotSpots) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestUnmarshalScenarioAppliesDefaults(t *testing.T) {
	// A file specifying only the topology inherits everything else.
	got, err := UnmarshalScenario([]byte(`{"Topo":"ring","Nodes":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.PacketLen != 6 || got.Warmup == 0 || got.Measure == 0 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if got.Topo != Ring || got.Nodes != 8 {
		t.Fatal("explicit fields lost")
	}
}

func TestUnmarshalScenarioValidates(t *testing.T) {
	if _, err := UnmarshalScenario([]byte(`{"Topo":"spidergon","Nodes":9}`)); err == nil {
		t.Fatal("odd spidergon passed validation")
	}
	if _, err := UnmarshalScenario([]byte(`{nonsense`)); err == nil {
		t.Fatal("bad json accepted")
	}
}

func TestReadScenariosSingleAndList(t *testing.T) {
	one, err := ReadScenarios([]byte(`  {"Topo":"ring","Nodes":8}`))
	if err != nil || len(one) != 1 {
		t.Fatalf("single: %v %v", one, err)
	}
	many, err := ReadScenarios([]byte(`[
		{"Topo":"ring","Nodes":8},
		{"Topo":"mesh","Nodes":16}
	]`))
	if err != nil || len(many) != 2 {
		t.Fatalf("list: %v %v", many, err)
	}
	if many[1].Topo != Mesh {
		t.Fatal("list order lost")
	}
	if _, err := ReadScenarios([]byte(`[{"Topo":"spidergon","Nodes":9}]`)); err == nil {
		t.Fatal("invalid element accepted")
	}
	if _, err := ReadScenarios([]byte(`[broken`)); err == nil {
		t.Fatal("broken list accepted")
	}
}

func TestWriteResultJSON(t *testing.T) {
	s := NewScenario(Ring, 8, UniformTraffic, 0.005)
	s.Warmup, s.Measure = 100, 1500
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Throughput", "MeanLatency", "EnergyPerPacket", "TopologyName"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("result json missing %q:\n%s", key, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "ring-8") {
		t.Fatal("topology name missing")
	}
}

func TestFindSaturationHotspot(t *testing.T) {
	// The measured hot-spot saturation must land near the analytic
	// λ_sat = 1/(7·6) packets/cycle for an 8-node, 1-sink scenario.
	base := NewScenario(Spidergon, 8, HotSpotTraffic, 0)
	base.HotSpots = []int{0}
	base.Warmup, base.Measure = 400, 5000
	got, err := FindSaturation(base, 0.1, 0.08, 8)
	if err != nil {
		t.Fatal(err)
	}
	analytic := 1.0 / 42.0
	if got < 0.5*analytic || got > 1.4*analytic {
		t.Fatalf("measured saturation %v far from analytic %v", got, analytic)
	}
}

func TestFindSaturationCapReturnsHi(t *testing.T) {
	// A trivially light cap sustains: the search returns the cap.
	base := NewScenario(Spidergon, 8, UniformTraffic, 0)
	base.Warmup, base.Measure = 200, 2000
	got, err := FindSaturation(base, 0.001, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.001 {
		t.Fatalf("cap not returned: %v", got)
	}
}

func TestFindSaturationValidation(t *testing.T) {
	base := NewScenario(Spidergon, 8, UniformTraffic, 0)
	if _, err := FindSaturation(base, 0, 0.1, 4); err == nil {
		t.Fatal("zero hi accepted")
	}
	if _, err := FindSaturation(base, 0.1, 0, 4); err == nil {
		t.Fatal("zero tol accepted")
	}
	if _, err := FindSaturation(base, 0.1, 0.1, 0); err == nil {
		t.Fatal("zero iters accepted")
	}
	bad := NewScenario(Spidergon, 9, UniformTraffic, 0)
	if _, err := FindSaturation(bad, 0.1, 0.1, 2); err == nil {
		t.Fatal("invalid base scenario accepted")
	}
}

func TestFirstNonSpace(t *testing.T) {
	if firstNonSpace([]byte("   [1]")) != '[' {
		t.Fatal("bracket")
	}
	if firstNonSpace([]byte("\n\t {")) != '{' {
		t.Fatal("brace")
	}
	if firstNonSpace([]byte("  ")) != 0 {
		t.Fatal("empty")
	}
}
