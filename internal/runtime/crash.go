package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Fail-stop crash injection. Message-level faults (fault.go) model lossy
// links that retries can hide; this layer models the failure mode that
// dominates long multi-machine GNN jobs: a whole device dying mid-epoch and
// never coming back. A CrashConfig is a seeded-free, fully deterministic
// schedule ("device d dies at epoch E, stage S"); the HealthTracker fires it
// into its one monotone per-device down set, and each client's stage loop
// (Cluster.runClient) fails every send or receive touching a crashed device
// fast with a DeviceDownError, above the retry decorator, so no retry budget
// is spent on it. Callers distinguish
// "lossy link, retry" (TransportError wrapping ErrDropped & co.) from "peer
// is gone, recover" (DeviceDownError) and react by replanning over the
// survivors (see dgcl.System.Degrade).

// ErrDeviceDown reports that a transfer endpoint has failed fail-stop. It is
// permanent: no retry budget can bring the device back.
var ErrDeviceDown = errors.New("device down")

// DeviceDownError identifies which device a transfer found dead. It unwraps
// to ErrDeviceDown so errors.Is(err, ErrDeviceDown) matches anywhere in a
// CollectiveError chain.
type DeviceDownError struct {
	// Device is the external device id (original GPU numbering, stable
	// across degraded replans — see Cluster.DeviceIDs).
	Device int
}

func (e *DeviceDownError) Error() string {
	return fmt.Sprintf("device %d is down", e.Device)
}

func (e *DeviceDownError) Unwrap() error { return ErrDeviceDown }

// DownDevices reads which devices a failed collective found fail-stop dead
// (external ids, ascending): the health tracker's down set when it holds
// any (a fired schedule, explicit evidence or deadline strikes), otherwise
// every distinct DeviceDownError among the per-GPU errors. Otherwise an error
// blames nobody — a lossy link or a lone deadline is not a death — and an
// empty result means nothing to degrade.
func DownDevices(err error) []int {
	var ce *CollectiveError
	if errors.As(err, &ce) && len(ce.Down) > 0 {
		return append([]int(nil), ce.Down...)
	}
	if !errors.Is(err, ErrDeviceDown) {
		return nil
	}
	if ce == nil {
		var dd *DeviceDownError
		if errors.As(err, &dd) {
			return []int{dd.Device}
		}
		return nil
	}
	var out []int
	for _, pe := range ce.PerGPU {
		var dd *DeviceDownError
		if pe != nil && errors.As(pe, &dd) && !slices.Contains(out, dd.Device) {
			out = append(out, dd.Device)
		}
	}
	sort.Ints(out)
	return out
}

// CrashEvent schedules one fail-stop failure: Device dies the first time any
// transfer of epoch Epoch reaches plan stage Stage (0-based flattened stage
// index; stage 0 means the device is dead from the epoch's first transfer).
// Once down, a device stays down for the rest of the run.
type CrashEvent struct {
	Device int
	Epoch  int
	Stage  int
}

// CrashConfig is a deterministic fail-stop schedule.
type CrashConfig struct {
	Events []CrashEvent
}

// ParseCrashSchedule parses a comma-separated schedule of the form
// "dev@epoch" or "dev@epoch:stage" (e.g. "2@3:1,5@7"). An omitted stage
// means stage 0.
func ParseCrashSchedule(s string) (*CrashConfig, error) {
	cfg := &CrashConfig{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		devStr, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("runtime: crash event %q: want dev@epoch[:stage]", part)
		}
		epochStr, stageStr, hasStage := strings.Cut(at, ":")
		dev, err := strconv.Atoi(devStr)
		if err != nil {
			return nil, fmt.Errorf("runtime: crash event %q: bad device: %w", part, err)
		}
		epoch, err := strconv.Atoi(epochStr)
		if err != nil {
			return nil, fmt.Errorf("runtime: crash event %q: bad epoch: %w", part, err)
		}
		stage := 0
		if hasStage {
			stage, err = strconv.Atoi(stageStr)
			if err != nil {
				return nil, fmt.Errorf("runtime: crash event %q: bad stage: %w", part, err)
			}
		}
		if dev < 0 || epoch < 0 || stage < 0 {
			return nil, fmt.Errorf("runtime: crash event %q: negative field", part)
		}
		cfg.Events = append(cfg.Events, CrashEvent{Device: dev, Epoch: epoch, Stage: stage})
	}
	if len(cfg.Events) == 0 {
		return nil, fmt.Errorf("runtime: empty crash schedule %q", s)
	}
	return cfg, nil
}
