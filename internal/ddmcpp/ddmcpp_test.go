package ddmcpp

import (
	"os"
	"strings"
	"testing"
)

func parseString(t *testing.T, src string) (*File, error) {
	t.Helper()
	return Parse("test.ddm", strings.NewReader(src))
}

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := parseString(t, src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const minimal = `
//#pragma ddm startprogram name(mini)
//#pragma ddm thread 1
x := 1
_ = x
//#pragma ddm endthread
//#pragma ddm endprogram
`

func TestParseMinimal(t *testing.T) {
	f := mustParse(t, minimal)
	if f.Name != "mini" {
		t.Fatalf("name = %q", f.Name)
	}
	if len(f.Blocks) != 1 || len(f.Blocks[0].Threads) != 1 {
		t.Fatalf("blocks = %+v", f.Blocks)
	}
	th := f.Blocks[0].Threads[0]
	if th.ID != 1 || th.Instances != 1 || th.Kernel != -1 {
		t.Fatalf("thread = %+v", th)
	}
	if len(th.Body) != 2 {
		t.Fatalf("body = %q", th.Body)
	}
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
}

func TestParseTestdataPipeline(t *testing.T) {
	in, err := os.Open("testdata/pipeline.ddm")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	f, err := Parse("testdata/pipeline.ddm", in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(f.Blocks))
	}
	if len(f.Vars) != 2 || f.Vars[0].Name != "vec" || f.Vars[0].Size != 64 {
		t.Fatalf("vars = %+v", f.Vars)
	}
	if len(f.Uses) != 1 || f.Uses[0] != "encoding/binary" {
		t.Fatalf("uses = %v", f.Uses)
	}
	t2 := f.Blocks[0].Threads[1]
	if len(t2.Depends) != 1 || t2.Depends[0].Map != MapOne {
		t.Fatalf("thread 2 depends = %+v", t2.Depends)
	}
	if len(t2.Imports) != 1 || len(t2.Exports) != 1 {
		t.Fatalf("thread 2 io = %v / %v", t2.Imports, t2.Exports)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"//#pragma ddm endprogram\n", "before startprogram"},
		{"//#pragma ddm thread 1\n", "before startprogram"},
		{minimal + "//#pragma ddm block\n", "after endprogram"},
		{"//#pragma ddm startprogram\n//#pragma ddm bogus\n", `unknown ddm directive "bogus"`},
		{"//#pragma ddm startprogram\n//#pragma ddm thread nope\n", "bad thread id"},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1 instances(0)\n", "bad instances"},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1 wat(3)\n", `unknown thread clause "wat"`},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1 depends(2:zigzag)\n", "unknown mapping"},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1 depends(2:gather)\n", "wants a fan"},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1 depends(2:one:9)\n", "takes no argument"},
		{"//#pragma ddm startprogram\n//#pragma ddm var x nope\n", "bad size"},
		{"//#pragma ddm startprogram\n//#pragma ddm endthread\n", "endthread without open thread"},
		{"//#pragma ddm startprogram\n//#pragma ddm endblock\n", "endblock without open block"},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1\n//#pragma ddm endprogram\n", "missing endthread"},
		{minimal + "stray\n", "content after endprogram"},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1\n//#pragma ddm endthread\n", "missing endprogram"},
	}
	for _, c := range cases {
		_, err := parseString(t, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: err = %v, want %q", c.src, err, c.want)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "test.ddm:") {
			t.Errorf("error lacks file:line prefix: %v", err)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{
			"//#pragma ddm startprogram\n//#pragma ddm endprogram\n",
			"no threads",
		},
		{
			"//#pragma ddm startprogram\n//#pragma ddm thread 1\n//#pragma ddm endthread\n" +
				"//#pragma ddm thread 1\n//#pragma ddm endthread\n//#pragma ddm endprogram\n",
			"already declared",
		},
		{
			"//#pragma ddm startprogram\n//#pragma ddm thread 1 depends(1)\n//#pragma ddm endthread\n//#pragma ddm endprogram\n",
			"depends on itself",
		},
		{
			"//#pragma ddm startprogram\n//#pragma ddm thread 1 depends(9)\n//#pragma ddm endthread\n//#pragma ddm endprogram\n",
			"undeclared thread 9",
		},
		{
			"//#pragma ddm startprogram\n" +
				"//#pragma ddm thread 1\n//#pragma ddm endthread\n//#pragma ddm endblock\n" +
				"//#pragma ddm block\n//#pragma ddm thread 2 depends(1)\n//#pragma ddm endthread\n" +
				"//#pragma ddm endprogram\n",
			"another block",
		},
		{
			"//#pragma ddm startprogram\n" +
				"//#pragma ddm thread 1 instances(4)\n//#pragma ddm endthread\n" +
				"//#pragma ddm thread 2 instances(5) depends(1:one)\n//#pragma ddm endthread\n" +
				"//#pragma ddm endprogram\n",
			"unequal instance counts",
		},
		{
			"//#pragma ddm startprogram\n//#pragma ddm thread 1 import(ghost)\n//#pragma ddm endthread\n//#pragma ddm endprogram\n",
			`imports undeclared var "ghost"`,
		},
		{
			"//#pragma ddm startprogram\n//#pragma ddm var a 8\n//#pragma ddm var a 8\n" +
				"//#pragma ddm thread 1\n//#pragma ddm endthread\n//#pragma ddm endprogram\n",
			"duplicate var",
		},
	}
	for _, c := range cases {
		f, err := parseString(t, c.src)
		if err != nil {
			t.Fatalf("src %q: parse error %v", c.src, err)
		}
		err = Analyze(f)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: err = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestDefaultMappingResolution(t *testing.T) {
	src := "//#pragma ddm startprogram\n" +
		"//#pragma ddm thread 1 instances(4)\n//#pragma ddm endthread\n" +
		"//#pragma ddm thread 2 instances(4) depends(1)\n//#pragma ddm endthread\n" +
		"//#pragma ddm thread 3 depends(2)\n//#pragma ddm endthread\n" +
		"//#pragma ddm thread 4 instances(9) depends(3)\n//#pragma ddm endthread\n" +
		"//#pragma ddm endprogram\n"
	f := mustParse(t, src)
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
	th := f.Blocks[0].Threads
	if th[1].Depends[0].Map != MapOne {
		t.Fatalf("equal instances default = %v, want one", th[1].Depends[0].Map)
	}
	if th[2].Depends[0].Map != MapAll {
		t.Fatalf("single consumer default = %v, want all", th[2].Depends[0].Map)
	}
	if th[3].Depends[0].Map != MapBroadcast {
		t.Fatalf("mismatched default = %v, want broadcast", th[3].Depends[0].Map)
	}
}

func TestGenerateAllTargets(t *testing.T) {
	in, err := os.ReadFile("testdata/pipeline.ddm")
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range []Target{TargetSoft, TargetHard, TargetCell} {
		src, _, err := ProcessDiag("testdata/pipeline.ddm", strings.NewReader(string(in)), tgt)
		if err != nil {
			t.Fatalf("target %v: %v", tgt, err)
		}
		out := string(src)
		for _, want := range []string{
			"Code generated by ddmcpp",
			"package main",
			`tflux.NewProgram("pipeline")`,
			`prog.Buffer("vec", 64)`,
			"Instances(8)",
			"t1.Then(2, tflux.OneToOne{})",
			"t2.Then(3, tflux.AllToOne{})",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("target %v output missing %q:\n%s", tgt, want, out)
			}
		}
		switch tgt {
		case TargetSoft:
			if !strings.Contains(out, "tflux.RunSoft") {
				t.Fatalf("soft target missing RunSoft")
			}
		case TargetHard:
			if !strings.Contains(out, "tflux.RunHard") {
				t.Fatalf("hard target missing RunHard")
			}
		case TargetCell:
			if !strings.Contains(out, "tflux.RunCell") || !strings.Contains(out, `bufs.Register("vec", vec)`) {
				t.Fatalf("cell target missing staging code:\n%s", out)
			}
		}
	}
}

func TestGenerateRejectsBadBodySyntax(t *testing.T) {
	src := "//#pragma ddm startprogram\n//#pragma ddm thread 1\nthis is not go ((\n//#pragma ddm endthread\n//#pragma ddm endprogram\n"
	f := mustParse(t, src)
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(f, TargetSoft); err == nil || !strings.Contains(err.Error(), "does not parse") {
		t.Fatalf("err = %v, want parse failure", err)
	}
}

func TestParseTargetNames(t *testing.T) {
	for name, want := range map[string]Target{"soft": TargetSoft, "hard": TargetHard, "cell": TargetCell} {
		got, err := ParseTarget(name)
		if err != nil || got != want {
			t.Fatalf("ParseTarget(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseTarget("fpga"); err == nil {
		t.Fatal("unknown target accepted")
	}
	if TargetSoft.String() != "soft" || TargetHard.String() != "hard" || TargetCell.String() != "cell" || Target(9).String() != "?" {
		t.Fatal("target names")
	}
}

func TestSplitDirective(t *testing.T) {
	got := splitDirective("thread 3 depends(1:one, 2:gather:2) import(a, b)")
	want := []string{"thread", "3", "depends(1:one, 2:gather:2)", "import(a, b)"}
	if len(got) != len(want) {
		t.Fatalf("split = %q", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("split = %q", got)
		}
	}
}

func TestMapKindString(t *testing.T) {
	for k, s := range map[MapKind]string{MapDefault: "default", MapOne: "one", MapAll: "all",
		MapBroadcast: "broadcast", MapGather: "gather", MapScatter: "scatter", MapKind(99): "?"} {
		if k.String() != s {
			t.Fatalf("MapKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestCostClause(t *testing.T) {
	src := "//#pragma ddm startprogram\n//#pragma ddm thread 1 instances(4) cost(500)\n_ = ctx\n//#pragma ddm endthread\n//#pragma ddm endprogram\n"
	f := mustParse(t, src)
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
	if f.Blocks[0].Threads[0].Cost != 500 {
		t.Fatalf("cost = %d", f.Blocks[0].Threads[0].Cost)
	}
	out, err := Generate(f, TargetHard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "Cost(func(tflux.Context) int64 { return 500 })") {
		t.Fatalf("generated code lacks cost model:\n%s", out)
	}
	if _, err := parseString(t, "//#pragma ddm startprogram\n//#pragma ddm thread 1 cost(zero)\n"); err == nil {
		t.Fatal("bad cost accepted")
	}
	if _, err := parseString(t, "//#pragma ddm startprogram\n//#pragma ddm thread 1 cost(0)\n"); err == nil {
		t.Fatal("zero cost accepted")
	}
}

func TestForThreadDirective(t *testing.T) {
	src := "//#pragma ddm startprogram name(loop)\n" +
		"//#pragma ddm var acc 8\n" +
		"//#pragma ddm for thread 1 range(0,100) unroll(8) export(acc)\n" +
		"_ = i\n" +
		"//#pragma ddm endfor\n" +
		"//#pragma ddm thread 2 depends(1:all) import(acc)\n" +
		"_ = ctx\n" +
		"//#pragma ddm endthread\n" +
		"//#pragma ddm endprogram\n"
	f := mustParse(t, src)
	th := f.Blocks[0].Threads[0]
	if !th.IsLoop || th.RangeLo != 0 || th.RangeHi != 100 || th.Unroll != 8 {
		t.Fatalf("loop thread = %+v", th)
	}
	if th.Instances != 13 { // ceil(100/8)
		t.Fatalf("instances = %d, want 13", th.Instances)
	}
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
	out, err := Generate(f, TargetSoft)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ddmChunk(0, 100, 13, int(ctx))",
		"for i := lo; i < hi; i++ {",
		"func ddmChunk(lo, hi, parts, idx int)",
		"Instances(13)",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("generated code missing %q:\n%s", want, out)
		}
	}
}

func TestForThreadErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"//#pragma ddm startprogram\n//#pragma ddm for thread 1\n", "needs a range"},
		{"//#pragma ddm startprogram\n//#pragma ddm for thread 1 range(5,5)\n", "bad range"},
		{"//#pragma ddm startprogram\n//#pragma ddm for thread 1 range(0,10) unroll(0)\n", "bad unroll"},
		{"//#pragma ddm startprogram\n//#pragma ddm for thread 1 range(0,10) instances(4)\n", "derived from range"},
		{"//#pragma ddm startprogram\n//#pragma ddm for bogus\n", "for wants"},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1 range(0,10)\n", "only valid on"},
		{"//#pragma ddm startprogram\n//#pragma ddm for thread 1 range(0,10)\nx\n//#pragma ddm endthread\n", "must end with endfor"},
		{"//#pragma ddm startprogram\n//#pragma ddm thread 1\nx\n//#pragma ddm endfor\n", "endfor without open for-thread"},
	}
	for _, c := range cases {
		_, err := parseString(t, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: err = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestForThreadExecutesEndToEnd(t *testing.T) {
	// The generated shape must be semantically right: verify the chunking
	// via a direct AST-level simulation of what the generated closure
	// does.
	f := mustParse(t, "//#pragma ddm startprogram\n//#pragma ddm for thread 1 range(3,50) unroll(7)\n_ = i\n//#pragma ddm endfor\n//#pragma ddm endprogram\n")
	th := f.Blocks[0].Threads[0]
	covered := 0
	lo0 := -1
	for idx := 0; idx < th.Instances; idx++ {
		n := th.RangeHi - th.RangeLo
		lo := th.RangeLo + idx*n/th.Instances
		hi := th.RangeLo + (idx+1)*n/th.Instances
		if lo0 == -1 && lo != th.RangeLo {
			t.Fatalf("first chunk starts at %d", lo)
		}
		lo0 = lo
		covered += hi - lo
	}
	if covered != 47 {
		t.Fatalf("chunks cover %d iterations, want 47", covered)
	}
}

func TestTypedVars(t *testing.T) {
	src := "//#pragma ddm startprogram\n" +
		"//#pragma ddm var raw 64\n" +
		"//#pragma ddm var xs f64 8\n" +
		"//#pragma ddm var ks u32 4\n" +
		"//#pragma ddm thread 1 export(xs)\n" +
		"xs[0] = 1.5\n" +
		"//#pragma ddm endthread\n" +
		"//#pragma ddm endprogram\n"
	f := mustParse(t, src)
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
	if f.Vars[1].Type != "f64" || f.Vars[1].Count != 8 || f.Vars[1].Size != 64 {
		t.Fatalf("typed var = %+v", f.Vars[1])
	}
	soft, err := Generate(f, TargetSoft)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"var raw = make([]byte, 64)",
		"var xs = make([]float64, 8)",
		"var ks = make([]uint32, 4)",
		`prog.Buffer("xs", 64)`, // byte size, not element count
	} {
		if !strings.Contains(string(soft), want) {
			t.Fatalf("soft output missing %q:\n%s", want, soft)
		}
	}
	cell, err := Generate(f, TargetCell)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bufs.Register("xs", byteview.Float64s(xs))`,
		`bufs.Register("ks", byteview.Uint32s(ks))`,
		`bufs.Register("raw", raw)`,
		`"tflux/internal/byteview"`,
	} {
		if !strings.Contains(string(cell), want) {
			t.Fatalf("cell output missing %q:\n%s", want, cell)
		}
	}
	// Soft target must not import byteview.
	if strings.Contains(string(soft), "byteview") {
		t.Fatal("soft target needlessly imports byteview")
	}
}

func TestTypedVarErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"//#pragma ddm startprogram\n//#pragma ddm var x f99 8\n", "unknown type"},
		{"//#pragma ddm startprogram\n//#pragma ddm var x f64 0\n", "bad count"},
		{"//#pragma ddm startprogram\n//#pragma ddm var x f64 8 9\n", "var wants"},
	}
	for _, c := range cases {
		_, err := parseString(t, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: err = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestDistTargetGeneration(t *testing.T) {
	src := "//#pragma ddm startprogram name(d)\n" +
		"//#pragma ddm var acc f64 1\n" +
		"//#pragma ddm thread 1 export(acc)\nacc[0] = 1\n//#pragma ddm endthread\n" +
		"//#pragma ddm thread 2 depends(1) import(acc)\n_ = acc\n//#pragma ddm endthread\n" +
		"//#pragma ddm endprogram\n"
	f := mustParse(t, src)
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
	out, err := Generate(f, TargetDist)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tflux.RunDistLocal(build, *nodes, *kernels)",
		"build := func() (*tflux.Program, *tflux.CellBuffers) {",
		"acc := make([]float64, 1)", // replica-local, not top-level
		`bufs.Register("acc", byteview.Float64s(acc))`,
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("dist output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "var acc =") {
		t.Fatal("dist target must not declare buffers at top level")
	}
}

func TestDistTargetRejectsMultiInstanceExporters(t *testing.T) {
	src := "//#pragma ddm startprogram\n" +
		"//#pragma ddm var v f64 8\n" +
		"//#pragma ddm thread 1 instances(8) export(v)\n_ = ctx\n//#pragma ddm endthread\n" +
		"//#pragma ddm endprogram\n"
	f := mustParse(t, src)
	if err := Analyze(f); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(f, TargetDist); err == nil || !strings.Contains(err.Error(), "overwrite each other") {
		t.Fatalf("err = %v", err)
	}
	// The same program is fine on shared-memory targets.
	if _, err := Generate(f, TargetSoft); err != nil {
		t.Fatal(err)
	}
}

func TestParseTargetDist(t *testing.T) {
	got, err := ParseTarget("dist")
	if err != nil || got != TargetDist || TargetDist.String() != "dist" {
		t.Fatalf("ParseTarget(dist) = %v, %v", got, err)
	}
}
