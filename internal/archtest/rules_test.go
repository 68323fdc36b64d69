package archtest

import (
	"go/ast"
	"regexp"
	"testing"
)

// TestNoOnTwins: a kernel has one body, so nothing outside benchmark/
// declares an exported …On twin beyond the six forwards benchmark/ still
// calls and core's (*SG).RunTriangleKernelOn (CHANGES.md: "one body per
// kernel").
func TestNoOnTwins(t *testing.T) {
	check(t, rule{
		tests: true,
		decls: `^func (\([^)]*\) )?[A-Z][A-Za-z]*On$`,
		allow: `^internal/(traverse/traverse\.go:func BFSOn|centrality/pagerank\.go:func PageRankOn|triangles/engine\.go:func NewEngineOn|triangles/triangles\.go:func CountApproxOn|metrics/degree\.go:func DegreeDistributionOn|metrics/quality\.go:func CompareGraphsOn|core/core\.go:func \(\*SG\) RunTriangleKernelOn)$`,
	})
}

// TestNoDeprecatedWrappers: an API that goes is deleted, so no non-test file
// carries a Deprecated: marker (CHANGES.md: "one body per kernel").
func TestNoDeprecatedWrappers(t *testing.T) {
	check(t, rule{text: `Deprecated:`})
}

// TestNoRootBenchRecords: benchmark/README.md is the one performance record,
// so no BENCH_pr*.json sits at the root (CHANGES.md: "one perf record and no
// stand-ins in production").
func TestNoRootBenchRecords(t *testing.T) {
	check(t, rule{paths: []string{"BENCH_pr*.json"}})
}

// TestReferencesAreTestOnly: reference implementations live in _test.go
// files or internal/oracle, which only tests import (CHANGES.md: "one perf
// record and no stand-ins in production").
func TestReferencesAreTestOnly(t *testing.T) {
	check(t, rule{
		decls:   `^func (\([^)]*\) )?Reference[A-Z]`,
		imports: `^slimgraph/internal/oracle$`,
		allow:   `^internal/oracle/`,
	})
}

// TestDistributedStaysGone: the simulated engine internal/distributed is
// deleted and nothing imports it (CHANGES.md: "one perf record and no
// stand-ins in production").
func TestDistributedStaysGone(t *testing.T) {
	check(t, rule{
		tests:   true,
		imports: `^slimgraph/internal/distributed$`,
		paths:   []string{"internal/distributed"},
	})
}

// TestSpecIsTheOneSchemeBuilder: a scheme is built from its spec string, so
// internal/schemes has no typed With* option but WithSeed and WithWorkers
// and no New<Scheme> constructor (CHANGES.md: "a scheme is a kernel plus a
// parameter table").
func TestSpecIsTheOneSchemeBuilder(t *testing.T) {
	check(t, rule{
		in:    []string{"internal/schemes"},
		tests: true,
		decls: `^func (With[A-Z]|New(Uniform|VertexSample|Spectral|TR|LowDegree|Spanner|CutSparsify|Summarize|Relabel))`,
		allow: `:func With(Seed|Workers)$`,
	})
}

// TestClusterMirrorsNoKernel: internal/cluster runs the kernels' rows, so it
// declares no triangle counter or histogram of its own and names no PageRank
// constant (CHANGES.md: "one body per kernel across the wire").
func TestClusterMirrorsNoKernel(t *testing.T) {
	check(t, rule{
		in:     []string{"internal/cluster"},
		tests:  true,
		decls:  `^func (countForward|intersectCount|HistogramRange|MergeHistograms)$`,
		idents: `pr(Damping|Tol|MaxIter)`,
	})
}

// TestClusterRunsNoRounds: a kernel whose rounds depend on the graph runs
// whole on one replica, so non-test internal/cluster expands no frontier and
// runs no PageRank rounds (CHANGES.md: "multi-round queries run whole on one
// replica").
func TestClusterRunsNoRounds(t *testing.T) {
	check(t, rule{
		in:     []string{"internal/cluster"},
		idents: `expandFrontier|PowerIterate$`,
		text:   `"pr-(pull|init)"`,
	})
}

// TestOneIntersectionArm: internal/triangles intersects by one marked scan,
// with no gallopTo, intersectEmit or intersectCount arm beside it
// (CHANGES.md: "triangle intersection by marked scan").
func TestOneIntersectionArm(t *testing.T) {
	check(t, rule{
		in:    []string{"internal/triangles"},
		tests: true,
		decls: `^func (\([^)]*\) )?(gallopTo|intersectEmit|intersectCount)$`,
	})
}

// TestOneCountKernel: an exact count runs triangles.Forward's kernel, so an
// Engine declares no count of its own and non-test internal/server names no
// Engine (CHANGES.md: "exact triangle counts run on a count-only forward
// CSR").
func TestOneCountKernel(t *testing.T) {
	check(t,
		rule{in: []string{"internal/triangles"}, tests: true, decls: `^func \(\*Engine\) (countRange|Count)$`},
		rule{in: []string{"internal/server"}, idents: `triangles\.Engine|NewEngine`},
	)
}

// TestForwardCountsInOneLoop: a Forward counts in one loop body, the generic
// countRange under Count, with its hub rows inside it and every list width
// running it, so Forward declares no other count method and the package no
// other free count function but the package-level Count, CountApprox and
// CountApproxOn (CHANGES.md: "hub rows as bitmasks in the count-only
// triangle substrate", "the triangle arena at half its bytes").
func TestForwardCountsInOneLoop(t *testing.T) {
	check(t,
		rule{
			in:    []string{"internal/triangles"},
			tests: true,
			decls: `^func \(\*Forward\) [cC]ount[A-Za-z0-9_]*$`,
			allow: `:func \(\*Forward\) Count$`,
		},
		rule{
			in:    []string{"internal/triangles"},
			decls: `^func [cC]ount[A-Za-z0-9_]*$`,
			allow: `^internal/triangles/forward\.go:func countRange$|^internal/triangles/triangles\.go:func (Count|CountApprox|CountApproxOn)$`,
		},
	)
}

// kernelForward is one of the four Local forwards benchmark/ still calls
// (ROADMAP item 1(c) deletes them).
var kernelForward = regexp.MustCompile(`^func \(\*Local\) (BFS|PageRank|Triangles|Degrees)$`)

// TestOneRowPerEndpoint: an analytics endpoint is one row of server.Kernels,
// so no server or cluster type — QueryBackend included — has a per-kernel
// method but the four one-statement Local forwards, queries.go has no
// per-kernel handler and internal/cluster no per-kernel kernel (CHANGES.md:
// "one query table").
func TestOneRowPerEndpoint(t *testing.T) {
	check(t,
		rule{
			in:    []string{"internal/server", "internal/cluster"},
			decls: `^func \(\*?[A-Za-z]+\) (BFS|PageRank|Triangles|Degrees|Compare)$`,
			allow: `^internal/server/local\.go:func \(\*Local\) (BFS|PageRank|Triangles|Degrees)$`,
		},
		rule{
			in: []string{"internal/server/local.go"},
			inspect: func(files []*file, report reporter) {
				for _, f := range files {
					for _, d := range f.ast.Decls {
						if fd, ok := d.(*ast.FuncDecl); ok && kernelForward.MatchString(funcName(fd)) && len(fd.Body.List) != 1 {
							report(f, fd.Pos(), funcName(fd)+" is more than one statement")
						}
					}
				}
			},
		},
		rule{in: []string{"internal/server/queries.go"}, decls: `^func \(\*Server\) (bfs|pageRank|pagerank|triangles|degrees|compare)$`},
		rule{in: []string{"internal/cluster"}, idents: `(whole|part)(BFS|PageRank|Degrees|Triangles|Compare)`},
	)
}

// TestNoScatter: every cluster query is one sub-request to one replica, so
// non-test code names no Scatter shape, part route, CountPart or
// AddHistogram, and graph.DegreeCuts serves only PartitionByDegree
// (CHANGES.md: "every cluster query is one sub-request").
func TestNoScatter(t *testing.T) {
	check(t, rule{
		idents: `\bScatter\b|CountPart|AddHistogram|DegreeCuts$`,
		text:   `/part/|"part"`,
		allow:  `^internal/graph/adjacency\.go:func (DegreeCuts|PartitionByDegree)$`,
	})
}

// TestOnePropsPackage: each Table 3 property has one algorithm in
// internal/props, so the old per-property packages stay gone and props
// declares no Luby, Improve or GreedyRandomized (CHANGES.md: "one package
// for Table 3's property kernels").
func TestOnePropsPackage(t *testing.T) {
	check(t, rule{
		in:    []string{"internal/props"},
		tests: true,
		decls: `^func (\([^)]*\) )?(Luby|Improve|GreedyRandomized)$`,
		paths: []string{"internal/coloring", "internal/matching", "internal/mis", "internal/mincut", "internal/mst"},
	})
}

// TestGapLayoutInOneFile: the gap layout is known in
// internal/succinct/varint.go alone, so no other non-test file calls a
// varint or zig-zag codec, a group primitive or MaxVarintLen (CHANGES.md:
// "the gap layout is known in one file", widened by "eight gaps per width
// byte").
func TestGapLayoutInOneFile(t *testing.T) {
	check(t, rule{
		idents: `Uvarint$|ZigZag$|decodeGroup$|bitsAt$|listFits$|groupSize|maxGroupWidth|MaxVarintLen`,
		allow:  `^internal/succinct/varint\.go:`,
	})
}

// TestOneEvaluator: internal/experiments compares a compressed graph with
// its original in row.go alone, calling metrics.CompareGraphs once, and
// cmd/slimbench lists no artifacts of its own (CHANGES.md: "one evaluator
// under the paper's evaluation").
func TestOneEvaluator(t *testing.T) {
	check(t,
		rule{
			in:     []string{"internal/experiments"},
			idents: `^(metrics\.(KLDivergence|BFSCritical|BFSCriticalMulti|CompareGraphs)|components\.Count)$`,
			allow:  `^internal/experiments/row\.go:`,
		},
		rule{in: []string{"internal/experiments/row.go"}, inspect: exactlyOnce(`^metrics\.CompareGraphs$`)},
		rule{
			in:     []string{"cmd/slimbench"},
			tests:  true,
			decls:  `^var drivers`,
			idents: `^experiments\.(All|Table[0-9]|Figure[0-9])`,
		},
	)
}

// TestOneResidencyPath: the variant cache holds no schemes value,
// internal/server has no cold tier and tier.go calls succinct.WriteServable
// exactly once (CHANGES.md: "one residency path").
func TestOneResidencyPath(t *testing.T) {
	check(t,
		rule{in: []string{"internal/server/cache.go"}, idents: `^schemes\.`},
		rule{in: []string{"internal/server"}, tests: true, idents: `ResidencyCold|graphFaultIns`},
		rule{in: []string{"internal/server/tier.go"}, inspect: exactlyOnce(`WriteServable$`)},
	)
}

// TestCachedVariantIsAnEntry: a cached variant is a catalog entry, so
// non-test internal/server asserts no *succinct.Mapped, declares no method
// on compressed and removes a directory only in store.clearVariants
// (CHANGES.md: "a cached variant is a catalog entry").
func TestCachedVariantIsAnEntry(t *testing.T) {
	check(t, rule{
		in:     []string{"internal/server"},
		decls:  `^func \(\*?compressed\) `,
		idents: `^os\.RemoveAll$`,
		allow:  `:func \(\*store\) clearVariants$`,
		inspect: func(files []*file, report reporter) {
			for _, f := range files {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					var types []ast.Expr
					switch n := n.(type) {
					case *ast.TypeAssertExpr:
						types = []ast.Expr{n.Type}
					case *ast.CaseClause:
						types = n.List
					}
					for _, e := range types {
						if e != nil && f.typeName(e) == "*succinct.Mapped" {
							report(f, e.Pos(), "asserts *succinct.Mapped")
						}
					}
					return true
				})
			}
		},
	})
}

// TestServerDecodesNothing: a scheme reads a packed or mapped entry in
// place, so non-test internal/server calls no Unpack and declares no
// materialize (CHANGES.md: "compress packed and mapped graphs in place").
func TestServerDecodesNothing(t *testing.T) {
	check(t, rule{
		in:     []string{"internal/server"},
		decls:  `^func (\([^)]*\) )?materialize$`,
		idents: `Unpack$`,
	})
}

// TestOneInputPath: core.SG reads its input one way, declares no Graph and
// names no FilterEdgeSet, internal/graph declares no packCSR beside the one
// filter, non-test internal/schemes reaches graph.CSROf only in
// summarizeDecoded, relabel and collapseTR, and internal/ldd names no
// TreeEdges or FindEdge (CHANGES.md: "one input path for every compression
// kernel", "one materialization path").
func TestOneInputPath(t *testing.T) {
	check(t,
		rule{in: []string{"internal/core"}, tests: true, decls: `^func \(\*SG\) Graph$`, idents: `FilterEdgeSet$`},
		rule{in: []string{"internal/graph"}, tests: true, decls: `^func packCSR$`},
		rule{in: []string{"internal/schemes"}, idents: `CSROf$`, allow: `:func (summarizeDecoded|relabel|collapseTR)$`},
		rule{in: []string{"internal/ldd"}, tests: true, idents: `TreeEdges|FindEdge`},
	)
}

// TestPacksKeepOriginalIDs: a pack keeps the vertex IDs it is given, so no
// non-test code declares a pack-time order and none but
// internal/succinct/header.go sets a header's Permuted flag (CHANGES.md:
// "packed graphs and snapshots keep original vertex IDs").
func TestPacksKeepOriginalIDs(t *testing.T) {
	check(t, rule{
		decls: `^func (\([^)]*\) )?(WithOrder|OriginalID|PackedID|EncodeStoredOrder|WritePackedOrder|PackGraphOrdered)$`,
		allow: `^internal/succinct/header\.go:`,
		inspect: func(files []*file, report reporter) {
			for _, f := range files {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					var set []ast.Expr
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						set = []ast.Expr{n.Key}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								set = append(set, sel.Sel)
							}
						}
					}
					for _, e := range set {
						if id, ok := e.(*ast.Ident); ok && id.Name == "Permuted" {
							report(f, id.Pos(), "sets Permuted")
						}
					}
					return true
				})
			}
		},
	})
}

// TestReplicaAnswersThePublicQuery: the coordinator relays a replica's reply
// to the public route, so no second wire protocol (protocol.go, an SGF
// frame, a frame or reply codec, a /whole/ route), no finishing column in
// queries.go, no Reply type and no Local.Compute come back (CHANGES.md: "a
// replica answers the public query").
func TestReplicaAnswersThePublicQuery(t *testing.T) {
	check(t,
		rule{
			idents: `frameMagic|frameHeader|(append|decode|check)(Frame|Reply)\b`,
			text:   `"SGF"|/whole/`,
			paths:  []string{"internal/cluster/protocol.go"},
		},
		rule{in: []string{"internal/server/queries.go"}, idents: `(^|\.)(Finish|Elem|PerVertex)$`},
		rule{in: []string{"internal/server"}, decls: `^type Reply$|^func \(\*Local\) Compute$`},
	)
}

// TestShardIsPlainSlimgraphd: a shard serves the public API alone and a
// query keeps no retry budget across its sub-requests, so non-test code
// names no /internal/v1 route, WrapShard, handleLoad or handleUnload,
// Server.Handle hook or RetryBudget (CHANGES.md: "a shard is a plain
// slimgraphd").
func TestShardIsPlainSlimgraphd(t *testing.T) {
	check(t, rule{
		decls:  `^func \(\*Server\) Handle$`,
		idents: `WrapShard|handle(Load|Unload)\b|RetryBudget`,
		text:   `/internal/v1`,
	})
}

// TestFailoverIsTheOnlyRetry: a sub-request is one attempt and the retry
// for a failed replica is another replica, so internal/resilience/retry.go
// is gone and non-test code names no RetryPolicy, Backoff, MaxAttempts or
// noRetry and writes no "retries" flag (CHANGES.md: "failover is the
// cluster's only retry").
func TestFailoverIsTheOnlyRetry(t *testing.T) {
	check(t, rule{
		idents: `RetryPolicy|Backoff|MaxAttempts|noRetry`,
		text:   `"retries"`,
		paths:  []string{"internal/resilience/retry.go"},
	})
}

// TestVariantsComputedOnDemand: a replica computes a variant when a query
// names it, so non-test internal/cluster and internal/server have no /purge
// route, variant purge or removal and no quorum (CHANGES.md: "a replica
// computes a variant when asked").
func TestVariantsComputedOnDemand(t *testing.T) {
	check(t, rule{
		in:     []string{"internal/cluster", "internal/server"},
		idents: `PurgeVariant|purgeVariant|purgeKey|removeVariant|[Qq]uorum`,
		text:   `/purge`,
	})
}

// TestPageRankIsOneFunction: centrality.PageRank exports none of its steps,
// decodes its in-lists once per call rather than per iteration, and
// internal/parallel keeps no SumFloat64 (CHANGES.md: "a replica computes a
// variant when asked", widened by "PageRank decodes a packed graph once per
// call").
func TestPageRankIsOneFunction(t *testing.T) {
	check(t,
		rule{in: []string{"internal/centrality"}, decls: `^func (PowerIterate|PullSums|Contributions|Dangling)$`},
		rule{in: []string{"internal/centrality/pagerank.go"}, idents: `ScanInLists$`},
		rule{in: []string{"internal/parallel"}, decls: `^func SumFloat64$`},
	)
}

// TestOutputsIgnoreTheWorkerCount: no scheme's output depends on the worker
// count, so internal/schemes names no Sequential, internal/core declares no
// Edge-Once consider flags and internal/server's cache Key has no Workers
// field (CHANGES.md: "every scheme's output is independent of the worker
// count").
func TestOutputsIgnoreTheWorkerCount(t *testing.T) {
	check(t,
		rule{in: []string{"internal/schemes"}, tests: true, idents: `^Sequential$`},
		rule{
			in:    []string{"internal/core"},
			tests: true,
			decls: `^func (\([^)]*\) )?(ConsiderOnce|MarkConsidered|WasConsidered)$`,
		},
		rule{
			in: []string{"internal/server"},
			inspect: func(files []*file, report reporter) {
				for _, f := range files {
					for _, d := range f.ast.Decls {
						gd, ok := d.(*ast.GenDecl)
						if !ok {
							continue
						}
						for _, spec := range gd.Specs {
							ts, ok := spec.(*ast.TypeSpec)
							if !ok || ts.Name.Name != "Key" {
								continue
							}
							st, ok := ts.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, field := range st.Fields.List {
								for _, name := range field.Names {
									if name.Name == "Workers" {
										report(f, name.Pos(), "keys variants by Workers")
									}
								}
							}
						}
					}
				}
			},
		},
	)
}

// TestBuilderSortsByCounting: graph construction runs in linear passes, so
// internal/graph's non-test code calls no comparison sort — no
// sort.Slice, sort.SliceStable, sort.Sort, sort.Stable or slices.Sort* —
// while sort.Search stays (CHANGES.md: "graph construction without a
// comparison sort").
func TestBuilderSortsByCounting(t *testing.T) {
	check(t, rule{
		in:     []string{"internal/graph"},
		idents: `^(sort\.(Slice|SliceStable|Sort|Stable)|slices\.Sort(Func|StableFunc)?)$`,
	})
}
