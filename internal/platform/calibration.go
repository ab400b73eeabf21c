package platform

import (
	"fmt"
	"time"

	"repro/internal/sched"
)

// Calibration anchors (set once, shared by every experiment — see DESIGN.md):
//
//   - SSECoreGCUPS is fixed by Table III's hardest anchor: one SSE core
//     compares the 40 queries (~102,000 residues) against SwissProt
//     (~190.8M residues, 1.95e13 cells) in 7,190 s -> 2.71 GCUPS, squarely
//     in the published range for Farrar-style kernels on a 3.4 GHz core.
//   - GPUPeakGCUPS and GPUTaskOverhead are fixed jointly by Table V's
//     "4 GPUs + 4 SSEs finish SwissProt in 112 s" (needs ~41 effective
//     GCUPS per GPU) and Table IV's observation that the small databases
//     reach only about half the SwissProt GCUPS (the fixed per-task cost —
//     transfers, kernel launches, result collection — cannot amortize over
//     a ~12M-residue database).
const (
	// SSECoreGCUPS is the sustained throughput of one SSE core running the
	// adapted Farrar kernel.
	SSECoreGCUPS = 2.71
	// GPUPeakGCUPS is the sustained CUDASW++ 2.0 throughput of one GTX 580
	// once per-task overheads are excluded.
	GPUPeakGCUPS = 42.0
	// GPUTaskOverhead is the fixed cost a GPU pays per task (one query vs
	// the whole database): host transfers, kernel launches, setup and
	// result collection. 0.7 s makes the small databases run at roughly
	// half the SwissProt GCUPS, Table IV's stated effect.
	GPUTaskOverhead = 700 * time.Millisecond
	// SSETaskOverhead covers query-profile construction on a CPU core.
	SSETaskOverhead = 5 * time.Millisecond
	// DedicatedJitter reproduces Fig. 7's small GCUPS wobble from OS
	// services on an otherwise dedicated machine.
	DedicatedJitter = 0.03
)

// SSEPE returns the model of one SSE core.
func SSEPE(name string) *PE {
	return &PE{
		Name:         name,
		Kind:         sched.KindCPU,
		CellsPerSec:  SSECoreGCUPS * 1e9,
		TaskOverhead: SSETaskOverhead,
		Jitter:       DedicatedJitter,
	}
}

// GPUPE returns the model of one GTX 580 running CUDASW++ 2.0.
func GPUPE(name string) *PE {
	return &PE{
		Name:         name,
		Kind:         sched.KindGPU,
		CellsPerSec:  GPUPeakGCUPS * 1e9,
		TaskOverhead: GPUTaskOverhead,
		Jitter:       DedicatedJitter,
	}
}

// FPGAGCUPS is the sustained throughput of one reconfigurable accelerator,
// modeled on the platform of Meng & Chaudhary [13] that the paper's future
// work plans to integrate (their 1-FPGA + 20-SSE platform reports 25.81
// GCUPS; the FPGA carries most of it).
const FPGAGCUPS = 20.0

// FPGAPE returns the model of one FPGA accelerator. Reconfiguration and
// host transfers cost more per task than a GPU's setup does.
func FPGAPE(name string) *PE {
	return &PE{
		Name:         name,
		Kind:         sched.KindFPGA,
		CellsPerSec:  FPGAGCUPS * 1e9,
		TaskOverhead: 1200 * time.Millisecond,
		Jitter:       DedicatedJitter,
	}
}

// Hybrid builds the paper's standard configurations: nGPU GPUs followed by
// nSSE SSE cores (e.g. Hybrid(4, 4) is the "4 GPUs + 4 SSEs" platform).
func Hybrid(nGPU, nSSE int) []*PE {
	var out []*PE
	for i := 0; i < nGPU; i++ {
		out = append(out, GPUPE(fmt.Sprintf("GPU%d", i+1)))
	}
	for i := 0; i < nSSE; i++ {
		out = append(out, SSEPE(fmt.Sprintf("SSE%d", i+1)))
	}
	return out
}
