// Package exhaustive is the golden fixture for the enum-switch analyzer.
package exhaustive

// Phase qualifies as a module enum: a named integer type with at least
// two package-level constants of exactly that type.
type Phase int

const (
	PhaseIdle Phase = iota
	PhaseRun
	PhaseDone
)

// PhaseRunning aliases PhaseRun; same-value constants collapse to one
// enum member, so covering either name covers the member.
const PhaseRunning = PhaseRun

// Mode is a string-backed enum.
type Mode string

const (
	ModeFast Mode = "fast"
	ModeSafe Mode = "safe"
)

// lone has only one constant, so it is not an enum and its switches are
// never checked.
type lone int

const onlyLone lone = 0

func bad(p Phase) string {
	switch p { // want "switch over Phase misses PhaseDone and has no default case"
	case PhaseIdle:
		return "idle"
	case PhaseRun:
		return "run"
	}
	return "?"
}

func badString(m Mode) {
	switch m { // want "switch over Mode misses ModeSafe and has no default case"
	case ModeFast:
	}
}

func coversAll(p Phase) string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseRunning: // alias name covers the PhaseRun member
		return "run"
	case PhaseDone:
		return "done"
	}
	return "?"
}

func hasDefault(p Phase) string {
	switch p {
	case PhaseDone:
		return "done"
	default:
		return "busy"
	}
}

func nonConstantCase(p, q Phase) bool {
	switch p { // skipped: a non-constant case defeats static reasoning
	case q:
		return true
	}
	return false
}

func notAnEnum(l lone) {
	switch l { // single-constant types are not enums
	case onlyLone:
	}
}

// TaskKind mirrors sched.TaskKind: an iota enum that grew from one de
// facto value (the zero value meant the only kind) to several. The
// zero-valued member counts like any other, so a switch written before
// the type grew now needs every kind or a default.
type TaskKind int

const (
	TaskSW TaskKind = iota
	TaskPrefilter
	TaskRescore
)

func staleKindSwitch(k TaskKind) int64 {
	switch k { // want "switch over TaskKind misses TaskPrefilter, TaskRescore and has no default case"
	case TaskSW:
		return 1
	}
	return 0
}

func grownKindSwitch(k TaskKind) string {
	switch k {
	case TaskSW:
		return "sw"
	case TaskPrefilter:
		return "prefilter"
	case TaskRescore:
		return "rescore"
	}
	return "?"
}

// ShardState mirrors cluster.ShardState: the shard-scan lifecycle enum the
// cluster backend switches over when rendering progress.
type ShardState int

const (
	ShardPending ShardState = iota
	ShardScanning
	ShardDone
	ShardFailed
)

func staleShardSwitch(s ShardState) bool {
	switch s { // want "switch over ShardState misses ShardDone, ShardFailed and has no default case"
	case ShardPending, ShardScanning:
		return false
	}
	return true
}

// Backend mirrors jobs.Backend: the string enum naming a job's execution
// path. Routing switches must handle every backend or default.
type Backend string

const (
	BackendLocal   Backend = "local"
	BackendCluster Backend = "cluster"
)

func staleBackendSwitch(b Backend) string {
	switch b { // want "switch over Backend misses BackendCluster and has no default case"
	case BackendLocal:
		return "in-process"
	}
	return "?"
}

func routedBackendSwitch(b Backend) string {
	switch b {
	case BackendLocal:
		return "in-process"
	case BackendCluster:
		return "scatter-gather"
	}
	return "?"
}

// TenantPolicy is an iota enum of queueing disciplines that a cost
// function switches over: a discipline added after the switch was written
// must not silently fall through to the FIFO charge.
type TenantPolicy int

const (
	TenantFIFO TenantPolicy = iota
	TenantWFQ
	TenantDRF
)

func staleTenantPolicySwitch(p TenantPolicy) float64 {
	switch p { // want "switch over TenantPolicy misses TenantDRF and has no default case"
	case TenantFIFO:
		return 0
	case TenantWFQ:
		return 1
	}
	return 0
}
