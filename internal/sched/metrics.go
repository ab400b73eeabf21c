package sched

import "repro/internal/metrics"

// Metrics is the coordinator's instrumentation bundle. A Coordinator always
// holds one: NewMetrics(nil) is the uninstrumented bundle of no-op handles,
// which the discrete-event experiments run on.
//
// The counters follow the task lifecycle (§IV-A.3): assigned counts
// first-copy grants, replicated counts extra copies from the workload
// adjustment mechanism, requeued counts executing tasks that fell back to
// ready because every executor abandoned them or died, completed counts
// accepted first-finisher results. The pool gauges are sums over the
// coordinators attached to the registry (each publishes deltas and retires
// its share with RetireGauges); the per-slave gauge is the Ω-window speed
// estimate that drives PSS and the adjustment mechanism.
type Metrics struct {
	TasksAssigned    *metrics.Counter
	TasksCompleted   *metrics.Counter
	TasksRequeued    *metrics.Counter
	TasksReplicated  *metrics.Counter
	TasksRedelivered *metrics.Counter
	LeaseExpirations *metrics.Counter

	ReadyTasks     *metrics.Gauge
	ExecutingTasks *metrics.Gauge
	FinishedTasks  *metrics.Gauge
	AliveSlaves    *metrics.Gauge

	// SlaveRate is the current speed estimate per slave, in GCUPS —
	// the live version of the paper's per-device throughput plots.
	SlaveRate *metrics.GaugeVec
}

// NewMetrics registers (or re-attaches to) the scheduler families on r.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		TasksAssigned:    r.Counter("sched_tasks_assigned_total", "Tasks granted to slaves by the allocation policy (first copies only)."),
		TasksCompleted:   r.Counter("sched_tasks_completed_total", "Tasks with an accepted (first-finisher) result."),
		TasksRequeued:    r.Counter("sched_tasks_requeued_total", "Executing tasks returned to ready after losing every executor (death, cancellation or abandonment)."),
		TasksReplicated:  r.Counter("sched_tasks_replicated_total", "Extra task copies granted by the workload adjustment mechanism."),
		TasksRedelivered: r.Counter("sched_tasks_redelivered_total", "Outstanding assignments retransmitted to slaves whose Assign response was lost."),
		LeaseExpirations: r.Counter("sched_lease_expirations_total", "Slaves declared dead by the lease-based failure detector."),
		ReadyTasks:       r.Gauge("sched_ready_tasks", "Tasks not yet assigned to any slave."),
		ExecutingTasks:   r.Gauge("sched_executing_tasks", "Tasks running on at least one slave."),
		FinishedTasks:    r.Gauge("sched_finished_tasks", "Tasks with a collected result."),
		AliveSlaves:      r.Gauge("sched_alive_slaves", "Registered slaves not declared dead."),
		SlaveRate:        r.GaugeVec("sched_slave_rate_gcups", "Current Omega-window speed estimate per slave, in GCUPS.", "slave"),
	}
}
