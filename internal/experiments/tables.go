package experiments

// The paper's three configuration tables, reproduced from the running
// system's actual parameters so drift between docs and code is impossible.

import (
	"fmt"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/stats"
	"github.com/whisper-sim/whisper/internal/workload"
)

// TableI lists the data center applications and their workloads
// (paper Table I), plus the synthetic population each one instantiates.
func TableI() *stats.Table {
	t := stats.NewTable("Table I: data center applications and workloads",
		"application", "workload", "static branches", "inputs")
	for _, spec := range workload.DataCenterSpecs() {
		app := workload.MustNew(spec.Config)
		t.AddRow(spec.Config.Name, spec.Workload,
			fmt.Sprintf("%d", app.StaticBranches()),
			fmt.Sprintf("%d", app.Inputs()))
	}
	return t
}

// TableII lists the simulated machine parameters (paper Table II).
func TableII() *stats.Table {
	cfg := pipeline.DefaultConfig()
	t := stats.NewTable("Table II: simulator parameters", "parameter", "value")
	t.AddRow("CPU", fmt.Sprintf("%d-wide OOO, %d-entry FTQ, %d-cycle squash penalty",
		cfg.Width, cfg.Frontend.FTQDepth, cfg.SquashPenalty))
	t.AddRow("Branch prediction unit",
		"64KB TAGE-SC-L, 8192-entry 4-way BTB, 32-entry RAS, 4096-entry IBTB")
	t.AddRow("Caches",
		"32KB 8-way L1i, 32KB 8-way L1d, 1MB 16-way L2, 10MB 20-way L3")
	t.AddRow("Cache latencies", fmt.Sprintf("L1 %d / L2 %d / L3 %d / mem %d cycles",
		cfg.Frontend.Latency.L1, cfg.Frontend.Latency.L2,
		cfg.Frontend.Latency.L3, cfg.Frontend.Latency.Memory))
	return t
}

// TableIII lists Whisper's design parameters (paper Table III).
func TableIII() *stats.Table {
	p := core.DefaultParams()
	t := stats.NewTable("Table III: Whisper design parameters", "parameter", "value")
	t.AddRow("Minimum history length", fmt.Sprintf("%d", p.MinHistory))
	t.AddRow("Maximum history length", fmt.Sprintf("%d", p.MaxHistory))
	t.AddRow("Different history lengths", fmt.Sprintf("%d", p.NumLengths))
	t.AddRow("Length of the hashed history", fmt.Sprintf("%d", formula.Leaves))
	t.AddRow("Logical operations used", fmt.Sprintf("%d", formula.NumOps))
	t.AddRow("Hint buffer size", fmt.Sprintf("%d", hint.BufferSize))
	t.AddRow("Formula encoding bits", fmt.Sprintf("%d", formula.EncBits))
	t.AddRow("Explored formula fraction", stats.FormatFloat(p.ExploreFraction, 3))
	return t
}
