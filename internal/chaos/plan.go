package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Kind identifies a fault class.
type Kind int

// The fault kinds.
const (
	// Latency delays every write frame after activation by Dur, plus an
	// optional seeded Jitter and a Ramp that grows per frame.
	Latency Kind = iota
	// Throttle caps write bandwidth at Rate bytes/second.
	Throttle
	// StallRead blocks the read side once, for Dur (one-way stall: the
	// write side keeps flowing).
	StallRead
	// StallWrite blocks the write side once, for Dur.
	StallWrite
	// Sever closes the connection after the After-th write frame;
	// MidFrame delivers half of the fatal frame's bytes first, modelling
	// a cut mid-message.
	Sever
)

// kindNames spells each kind the one way logs and plan specs both use.
var kindNames = [...]string{Latency: "latency", Throttle: "throttle",
	StallRead: "stall-read", StallWrite: "stall-write", Sever: "sever"}

// String names the kind as it appears in logs and plan specs.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Rule is one declarative fault. The zero After fires a one-shot fault
// on the first frame; continuous faults (Latency, Throttle) are active
// on every frame whose 1-based index exceeds After.
type Rule struct {
	Kind     Kind
	Node     int           // target connection index; -1 matches every connection
	After    int64         // frames that must complete before the fault fires
	Dur      time.Duration // Latency delay / stall duration
	Jitter   time.Duration // uniform [0,Jitter) extra latency, drawn from the seeded source
	Ramp     time.Duration // extra latency per frame past activation
	Rate     int64         // Throttle bytes/second
	MidFrame bool          // Sever: deliver half the fatal frame first
}

// describe renders the rule's parameters for the event log. It must be
// deterministic: no runtime-drawn values.
func (r Rule) describe() string {
	var parts []string
	if r.Dur > 0 {
		parts = append(parts, "dur="+r.Dur.String())
	}
	if r.Jitter > 0 {
		parts = append(parts, "jitter="+r.Jitter.String())
	}
	if r.Ramp > 0 {
		parts = append(parts, "ramp="+r.Ramp.String())
	}
	if r.Rate > 0 {
		parts = append(parts, "rate="+strconv.FormatInt(r.Rate, 10))
	}
	if r.MidFrame {
		parts = append(parts, "midframe")
	}
	return strings.Join(parts, " ")
}

// Plan is a seeded fault schedule shared by all connections of a run.
// The seed feeds a per-connection rand source (seed and connection index
// mixed), so jitter sequences are reproducible per connection no matter
// how connections interleave.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// rulesFor returns the rules that apply to the given connection index.
func (p *Plan) rulesFor(node int) []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Node < 0 || r.Node == node {
			out = append(out, r)
		}
	}
	return out
}

// Wrap returns conn with the plan's faults attached, logging fired
// faults to log (which may be nil). node is the connection's index in
// the run — the identity Rule.Node matches against.
func (p *Plan) Wrap(node int, conn net.Conn, log *Log) net.Conn {
	rules := p.rulesFor(node)
	if len(rules) == 0 {
		return conn
	}
	active := make([]activeRule, len(rules))
	for i, r := range rules {
		active[i] = activeRule{Rule: r}
	}
	return &Conn{
		inner: conn,
		node:  node,
		log:   log,
		rng:   rand.New(rand.NewSource(p.Seed*1000003 + int64(node))),
		rules: active,
	}
}

// ParseSpec parses the textual plan form used by CLI flags:
//
//	[seed=N,]plan=RULE[;RULE...]
//
// or bare RULE[;RULE...]. Each RULE is kind[:field=value...] with kind
// one of latency, throttle, stall-read, stall-write, sever and fields
// node (int, default -1 = all), after (frames), dur (duration), jitter
// (duration), ramp (duration per frame), rate (bytes/sec), midframe
// (bool). Example:
//
//	seed=7,plan=sever:node=1:after=40:midframe=true;latency:dur=1ms:jitter=500us
func ParseSpec(s string) (*Plan, error) {
	p := &Plan{Seed: 1}
	rest := strings.TrimSpace(s)
	if strings.HasPrefix(rest, "seed=") {
		head, tail, ok := strings.Cut(rest, ",")
		if !ok {
			return nil, fmt.Errorf("chaos: spec %q has a seed but no plan", s)
		}
		seed, err := strconv.ParseInt(strings.TrimPrefix(head, "seed="), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chaos: bad seed in %q: %v", s, err)
		}
		p.Seed = seed
		rest = tail
	}
	rest = strings.TrimPrefix(rest, "plan=")
	if rest == "" {
		return nil, fmt.Errorf("chaos: empty plan in %q", s)
	}
	for _, rs := range strings.Split(rest, ";") {
		r, err := parseRule(rs)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}

// parseRule parses one kind[:field=value...] clause.
func parseRule(s string) (Rule, error) {
	fields := strings.Split(strings.TrimSpace(s), ":")
	r := Rule{Node: -1}
	k := slices.Index(kindNames[:], fields[0])
	if k < 0 {
		return r, fmt.Errorf("chaos: unknown fault kind %q in rule %q (want %s)", fields[0], s, strings.Join(kindNames[:], ", "))
	}
	r.Kind = Kind(k)
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return r, fmt.Errorf("chaos: field %q in rule %q is not key=value", f, s)
		}
		var err error
		switch k {
		case "node":
			r.Node, err = strconv.Atoi(v)
		case "after":
			r.After, err = strconv.ParseInt(v, 10, 64)
		case "dur":
			r.Dur, err = time.ParseDuration(v)
		case "jitter":
			r.Jitter, err = time.ParseDuration(v)
		case "ramp":
			r.Ramp, err = time.ParseDuration(v)
		case "rate":
			r.Rate, err = strconv.ParseInt(v, 10, 64)
		case "midframe":
			r.MidFrame, err = strconv.ParseBool(v)
		default:
			return r, fmt.Errorf("chaos: unknown field %q in rule %q", k, s)
		}
		if err != nil {
			return r, fmt.Errorf("chaos: bad value for %q in rule %q: %v", k, s, err)
		}
	}
	return r, nil
}
