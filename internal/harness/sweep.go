package harness

import "time"

// SweepSeconds times the full Table I + Table II grid, sequentially, with
// the runner's current Reference setting. The grid result is discarded;
// only the wall-clock matters here (correctness is the equivalence tests'
// job).
func (r *Runner) SweepSeconds() (float64, error) {
	saved := r.Workers
	r.Workers = 1
	defer func() { r.Workers = saved }()
	start := time.Now()
	if _, err := r.TableI(); err != nil {
		return 0, err
	}
	if _, err := r.TableII(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}
