package ontology

import "testing"

// BenchmarkCompileRules times what an ontology costs before its first
// document: parsing each of the four builtin DSL sources and compiling its
// rules (scan plans, verifiers, the literal automaton). ontology.Cache pays
// it once per distinct source, at set-up or on an inline DSL's first
// request.
func BenchmarkCompileRules(b *testing.B) {
	srcs := []string{ObituarySrc, CarAdSrc, JobAdSrc, CourseSrc}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			MustParse(src).Rules()
		}
	}
}
