package core

import (
	"strings"
	"testing"
)

func noop(Context) {}

// linearProgram builds src -> mid(xN) -> sink in one block.
func linearProgram(n Context) *Program {
	p := NewProgram("linear")
	b := p.AddBlock()
	src := NewTemplate(1, "src", noop)
	mid := NewTemplate(2, "mid", noop)
	mid.Instances = n
	sink := NewTemplate(3, "sink", noop)
	src.Then(2, Scatter{Fan: n})
	mid.Then(3, AllToOne{Target: 0})
	b.Add(src)
	b.Add(mid)
	b.Add(sink)
	return p
}

func TestValidateOK(t *testing.T) {
	if err := linearProgram(8).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEmptyProgram(t *testing.T) {
	if err := NewProgram("e").Validate(); err == nil {
		t.Fatal("empty program validated")
	}
}

func TestValidateRejectsEmptyBlock(t *testing.T) {
	p := NewProgram("e")
	p.AddBlock()
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "empty block") {
		t.Fatalf("err = %v, want empty block", err)
	}
}

func TestValidateRejectsDuplicateID(t *testing.T) {
	p := NewProgram("dup")
	b := p.AddBlock()
	b.Add(NewTemplate(1, "a", noop))
	b.Add(NewTemplate(1, "b", noop))
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("err = %v, want duplicate id", err)
	}
}

func TestValidateRejectsDuplicateIDAcrossBlocks(t *testing.T) {
	p := NewProgram("dup2")
	p.AddBlock().Add(NewTemplate(1, "a", noop))
	p.AddBlock().Add(NewTemplate(1, "b", noop))
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "already used") {
		t.Fatalf("err = %v, want duplicate id across blocks", err)
	}
}

func TestValidateRejectsNilBody(t *testing.T) {
	p := NewProgram("nb")
	p.AddBlock().Add(&Template{ID: 1, Name: "x", Instances: 1, Affinity: -1})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "nil body") {
		t.Fatalf("err = %v, want nil body", err)
	}
}

func TestValidateRejectsZeroInstances(t *testing.T) {
	p := NewProgram("zi")
	tpl := NewTemplate(1, "x", noop)
	tpl.Instances = 0
	p.AddBlock().Add(tpl)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "zero instances") {
		t.Fatalf("err = %v, want zero instances", err)
	}
}

func TestValidateRejectsCrossBlockArc(t *testing.T) {
	p := NewProgram("xb")
	a := NewTemplate(1, "a", noop)
	a.Then(2, OneToOne{})
	p.AddBlock().Add(a)
	p.AddBlock().Add(NewTemplate(2, "b", noop))
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unknown thread") {
		t.Fatalf("err = %v, want cross-block arc rejection", err)
	}
}

func TestValidateRejectsSelfArc(t *testing.T) {
	p := NewProgram("self")
	a := NewTemplate(1, "a", noop)
	a.Then(1, OneToOne{})
	p.AddBlock().Add(a)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "self arc") {
		t.Fatalf("err = %v, want self arc rejection", err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	p := NewProgram("cycle")
	b := p.AddBlock()
	a := NewTemplate(1, "a", noop)
	c := NewTemplate(2, "c", noop)
	d := NewTemplate(3, "d", noop)
	a.Then(2, OneToOne{})
	c.Then(3, OneToOne{})
	d.Then(2, OneToOne{})
	b.Add(a)
	b.Add(c)
	b.Add(d)
	// a -> c -> d -> c is a cycle through c and d.
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle rejection", err)
	}
}

func TestValidateRejectsOneToOneMismatch(t *testing.T) {
	p := NewProgram("mm")
	b := p.AddBlock()
	a := NewTemplate(1, "a", noop)
	a.Instances = 4
	c := NewTemplate(2, "c", noop)
	c.Instances = 5
	a.Then(2, OneToOne{})
	b.Add(a)
	b.Add(c)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unequal instance counts") {
		t.Fatalf("err = %v, want one-to-one mismatch", err)
	}
}

func TestValidateRejectsBadBuffers(t *testing.T) {
	p := linearProgram(2)
	p.AddBuffer("b", 0)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "non-positive size") {
		t.Fatalf("err = %v, want size rejection", err)
	}
	p = linearProgram(2)
	p.AddBuffer("b", 8)
	p.AddBuffer("b", 16)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate buffer") {
		t.Fatalf("err = %v, want duplicate buffer", err)
	}
}

// allProduced is a strictly-increasing self-arc mapping whose declared
// in-degree claims every context has a producer — including context 0,
// which nothing actually feeds. Validate takes declarations at face value
// (cross-checking them is ddmlint's job), but it can still see that a
// Block whose every instance starts with a non-zero Ready Count can never
// begin executing.
type allProduced struct{}

func (allProduced) AppendTargets(dst []Context, pctx, pInst, cInst Context) []Context {
	if pctx+1 < cInst {
		dst = append(dst, pctx+1)
	}
	return dst
}
func (allProduced) InDegree(Context, Context, Context) uint32 { return 1 }
func (allProduced) String() string                            { return "allProduced" }
func (allProduced) StrictlyIncreasing() bool                  { return true }

func TestValidateRejectsBlockWithNoSource(t *testing.T) {
	p := NewProgram("nosource")
	tpl := NewTemplate(1, "stage", noop)
	tpl.Instances = 4
	tpl.Then(1, allProduced{})
	p.AddBlock().Add(tpl)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no source instance") {
		t.Fatalf("err = %v, want no-source rejection", err)
	}
}

func TestProgramTemplateLookup(t *testing.T) {
	p := linearProgram(3)
	p.AddBlock().Add(NewTemplate(9, "extra", noop))
	if tpl := p.Template(2); tpl == nil || tpl.Name != "mid" {
		t.Fatalf("Template(2) = %v, want mid", tpl)
	}
	if tpl := p.Template(9); tpl == nil || tpl.Name != "extra" {
		t.Fatalf("Template(9) = %v, want extra (second block)", tpl)
	}
	if tpl := p.Template(42); tpl != nil {
		t.Fatalf("Template(42) = %v, want nil", tpl)
	}
	if got := p.TemplateName(2); got != `2 ("mid")` {
		t.Fatalf("TemplateName(2) = %q", got)
	}
	if got := p.TemplateName(42); got != "42" {
		t.Fatalf("TemplateName(42) = %q, want bare id for unknown thread", got)
	}
}

func TestValidateErrorsIncludeNames(t *testing.T) {
	p := NewProgram("cycle")
	b := p.AddBlock()
	a := NewTemplate(1, "alpha", noop)
	c := NewTemplate(2, "beta", noop)
	a.Then(2, OneToOne{})
	c.Then(1, OneToOne{})
	b.Add(a)
	b.Add(c)
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), `"alpha"`) || !strings.Contains(err.Error(), `"beta"`) {
		t.Fatalf("cycle error %v does not name both templates", err)
	}
}

func TestInDegrees(t *testing.T) {
	p := linearProgram(4)
	b := p.Blocks[0]
	if got := InDegrees(b, b.Template(1)); got[0] != 0 {
		t.Fatalf("src indegree = %d, want 0", got[0])
	}
	mid := InDegrees(b, b.Template(2))
	for c, d := range mid {
		if d != 1 {
			t.Fatalf("mid[%d] indegree = %d, want 1", c, d)
		}
	}
	if got := InDegrees(b, b.Template(3)); got[0] != 4 {
		t.Fatalf("sink indegree = %d, want 4", got[0])
	}
}

func TestBlockTotalInstances(t *testing.T) {
	p := linearProgram(7)
	if n := p.Blocks[0].TotalInstances(); n != 9 {
		t.Fatalf("TotalInstances = %d, want 9", n)
	}
}

func TestInstanceString(t *testing.T) {
	if s := (Instance{Thread: 5, Ctx: 9}).String(); s != "T5.9" {
		t.Fatalf("String = %q", s)
	}
}

// incMapping is a strictly-increasing self-arc mapping: ctx -> ctx+1.
type incMapping struct{ inc bool }

func (m incMapping) AppendTargets(dst []Context, pctx, pInst, cInst Context) []Context {
	if pctx+1 < cInst {
		dst = append(dst, pctx+1)
	}
	return dst
}
func (m incMapping) InDegree(cctx, pInst, cInst Context) uint32 {
	if cctx == 0 {
		return 0
	}
	return 1
}
func (m incMapping) String() string           { return "inc" }
func (m incMapping) StrictlyIncreasing() bool { return m.inc }

func TestMonotoneSelfArcAllowed(t *testing.T) {
	p := NewProgram("pipe")
	tpl := NewTemplate(1, "stage", noop)
	tpl.Instances = 8
	tpl.Then(1, incMapping{inc: true})
	p.AddBlock().Add(tpl)
	if err := p.Validate(); err != nil {
		t.Fatalf("monotone self-arc rejected: %v", err)
	}
	deg := InDegrees(p.Blocks[0], tpl)
	if deg[0] != 0 || deg[7] != 1 {
		t.Fatalf("indegrees = %v", deg)
	}
}

func TestNonMonotoneSelfArcRejected(t *testing.T) {
	p := NewProgram("bad")
	tpl := NewTemplate(1, "stage", noop)
	tpl.Instances = 8
	tpl.Then(1, incMapping{inc: false}) // claims not increasing
	p.AddBlock().Add(tpl)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "non-monotone") {
		t.Fatalf("err = %v", err)
	}
}
