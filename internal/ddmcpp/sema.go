package ddmcpp

// Analyze runs the front-end's semantic checks and resolves defaulted
// dependency mappings. It must pass before code generation:
//
//   - at least one block with at least one thread;
//   - thread IDs unique program-wide;
//   - depends reference threads of the same block (DDM arcs never cross
//     Blocks; cross-Block ordering is the Block sequence itself);
//   - no self- or forward-within-cycle dependencies (the underlying graph
//     check happens again at runtime; here we catch self-deps early);
//   - `one` mappings connect equal instance counts;
//   - import/export clauses reference declared vars;
//   - every block has at least one thread with no dependencies (a source);
//   - buffer names unique.
func Analyze(f *File) error {
	if len(f.Blocks) == 0 {
		return errf(f.Input, 1, "program has no threads")
	}
	vars := make(map[string]bool, len(f.Vars))
	for _, v := range f.Vars {
		if vars[v.Name] {
			return errf(f.Input, v.Line, "duplicate var %q", v.Name)
		}
		vars[v.Name] = true
	}
	seen := make(map[int]int) // id -> line
	for _, b := range f.Blocks {
		if len(b.Threads) == 0 {
			return errf(f.Input, b.Line, "empty block")
		}
		local := make(map[int]*Thread, len(b.Threads))
		for _, th := range b.Threads {
			if prev, dup := seen[th.ID]; dup {
				return errf(f.Input, th.Line, "thread id %d already declared at line %d", th.ID, prev)
			}
			seen[th.ID] = th.Line
			local[th.ID] = th
		}
		sources := 0
		for _, th := range b.Threads {
			if len(th.Depends) == 0 {
				sources++
			}
			for i := range th.Depends {
				d := &th.Depends[i]
				if d.On == th.ID {
					return errf(f.Input, d.Line, "thread %d depends on itself", th.ID)
				}
				prod, ok := local[d.On]
				if !ok {
					if _, elsewhere := seen[d.On]; elsewhere {
						return errf(f.Input, d.Line, "thread %d depends on thread %d from another block (arcs may not cross blocks)", th.ID, d.On)
					}
					return errf(f.Input, d.Line, "thread %d depends on undeclared thread %d", th.ID, d.On)
				}
				if d.Map == MapDefault {
					d.Map = defaultMapping(prod, th)
				}
				if d.Map == MapOne && prod.Instances != th.Instances {
					return errf(f.Input, d.Line, "one-to-one dependency %d->%d between unequal instance counts %d and %d",
						d.On, th.ID, prod.Instances, th.Instances)
				}
			}
			for _, imp := range th.Imports {
				if !vars[imp.Name] {
					return errf(f.Input, th.Line, "thread %d imports undeclared var %q", th.ID, imp.Name)
				}
			}
			for _, ex := range th.Exports {
				if !vars[ex.Name] {
					return errf(f.Input, th.Line, "thread %d exports undeclared var %q", th.ID, ex.Name)
				}
			}
		}
		if sources == 0 {
			return errf(f.Input, b.Line, "block has no source thread (every thread depends on another)")
		}
	}
	return nil
}

// defaultMapping resolves an unspecified mapping the way the directive
// language documents: equal loop shapes pair up, single consumers reduce,
// anything else synchronizes fully.
func defaultMapping(prod, cons *Thread) MapKind {
	switch {
	case prod.Instances == cons.Instances && prod.Instances > 1:
		return MapOne
	case cons.Instances == 1:
		return MapAll
	default:
		return MapBroadcast
	}
}
