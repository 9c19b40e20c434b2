package analysis

// All returns every flexvet analyzer, in the order diagnostics and CLI
// flags present them. Adding an analyzer here is the only registration
// step (docs/ANALYSIS.md walks through writing one).
func All() []*Analyzer {
	return []*Analyzer{
		Walltime,
		Maporder,
		Streamdiscipline,
		Errclose,
		Metricname,
	}
}
