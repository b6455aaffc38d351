package simnet

// Recovery pricing: virtual-time cost of crash tolerance, mirroring the
// runtime's checkpoint/recovery machinery (internal/checkpoint, dgcl.Train)
// the way FaultProfile mirrors the fault-injecting transport. Experiments
// use it to draw the recovery cost curve: how the checkpoint interval trades
// steady-state overhead (write time every N epochs) against lost work plus
// detect/replan/restore stalls on a failure — the classical Young/Daly
// trade-off, priced for this system's fabrics.

const (
	// checkpointWriteBW is the durable-write bandwidth in bytes/second (a
	// local NVMe).
	checkpointWriteBW = 2e9
	// checkpointReadBW is the restore-read bandwidth in bytes/second.
	checkpointReadBW = 4e9
	// commitLatency is the fixed fsync + rename commit cost per checkpoint,
	// in seconds.
	commitLatency = 5e-3
	// detectLatency is the time from a device dying to a down verdict, in
	// seconds: the receive deadline that converts silence into a strike.
	detectLatency = 2.0
	// replanLatency is the cold degraded SPST replan stall, in seconds.
	replanLatency = 50e-3
)

// CheckpointTime prices one durable checkpoint of the given payload size.
func CheckpointTime(bytes int64) float64 {
	return float64(bytes)/checkpointWriteBW + commitLatency
}

// RestoreTime prices reading and verifying one checkpoint payload.
func RestoreTime(bytes int64) float64 {
	return float64(bytes) / checkpointReadBW
}

// RecoveryTime prices one full failure handling: detection, degraded
// replanning, and checkpoint restore — the stall between the last failed
// collective and the first degraded epoch.
func RecoveryTime(checkpointBytes int64) float64 {
	return detectLatency + replanLatency + RestoreTime(checkpointBytes)
}

// LostWorkTime prices the re-executed epochs after a restore: with
// checkpoints every interval epochs, a crash loses on average interval/2
// epochs of epochTime each (worst case interval).
func LostWorkTime(interval int, epochTime float64) float64 {
	if interval < 1 {
		interval = 1
	}
	return float64(interval) / 2 * epochTime
}

// OverheadPerEpoch prices the expected per-epoch overhead of running with
// checkpoints every interval epochs under a device failure rate of
// failuresPerEpoch (failures per epoch, e.g. 1/10000): the amortized
// checkpoint write plus the expected recovery and lost-work cost. Sweeping
// interval traces the recovery cost curve; its minimum is the Young/Daly
// optimal interval for the configuration.
func OverheadPerEpoch(interval int, checkpointBytes int64, epochTime, failuresPerEpoch float64) float64 {
	if interval < 1 {
		interval = 1
	}
	steady := CheckpointTime(checkpointBytes) / float64(interval)
	expectedStall := failuresPerEpoch * (RecoveryTime(checkpointBytes) + LostWorkTime(interval, epochTime))
	return steady + expectedStall
}
