package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// stageRule is one rule applied to one pipeline stage.
type stageRule struct {
	rule   Rule
	frames atomic.Int64 // firings observed on this stage
	once   sync.Once    // one-shot stalls and one-time activation logging
}

// StageDelay interprets the plan against an in-process pipeline of the
// given stage count, as Wrap does against a net.Conn: the returned func
// gives the injected delay for the next firing of a stage and logs
// faults as they activate (the stage index is the log's node, so stream
// runs and dist runs share one report format). The plan vocabulary was
// designed for network links, so the mapping is:
//
//   - Rule.Node selects a stage index (-1 = every stage), and a "frame"
//     is one instance firing of that stage;
//   - Latency delays every firing past After by Dur (plus Ramp per
//     firing past activation — jitter is ignored to keep in-process
//     runs deterministic);
//   - StallRead/StallWrite stall one firing by Dur, once, after After
//     firings (both sides collapse to the same thing in-process);
//   - Sever and Throttle have no in-process meaning (there is no
//     connection to cut or byte stream to cap) and are rejected up front
//     rather than silently ignored.
func (p *Plan) StageDelay(stages int, log *Log) (func(stage int) time.Duration, error) {
	byStage := make([][]*stageRule, stages)
	for _, r := range p.Rules {
		switch r.Kind {
		case Latency, StallRead, StallWrite:
		default:
			return nil, fmt.Errorf("chaos: fault %q does not apply to in-process streams (use latency, stall-read or stall-write)", r.Kind)
		}
		if r.Node >= stages {
			return nil, fmt.Errorf("chaos: fault %q targets stage %d, pipeline has %d stages", r.Kind, r.Node, stages)
		}
		for s := range byStage {
			if r.Node < 0 || r.Node == s {
				byStage[s] = append(byStage[s], &stageRule{rule: r})
			}
		}
	}
	return func(stage int) time.Duration {
		var d time.Duration
		for _, sr := range byStage[stage] {
			frame := sr.frames.Add(1)
			if frame <= sr.rule.After {
				continue
			}
			switch sr.rule.Kind {
			case Latency:
				d += sr.rule.Dur + time.Duration(frame-sr.rule.After-1)*sr.rule.Ramp
				sr.once.Do(func() {
					log.add(stage, sr.rule.Kind.String(), frame, "dur="+sr.rule.Dur.String())
				})
			case StallRead, StallWrite:
				sr.once.Do(func() {
					d += sr.rule.Dur
					log.add(stage, sr.rule.Kind.String(), frame, "dur="+sr.rule.Dur.String())
				})
			}
		}
		return d
	}, nil
}
