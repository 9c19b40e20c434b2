package model

// Metrics summarizes legalization quality for a layout, following Sec. 2.1
// of the paper. Displacements are measured in multiples of the row height so
// the values are comparable to the AveDis column of Table 1.
type Metrics struct {
	// AveDis is S_am of Eq. 2: the mean, over cell-height classes, of the
	// average displacement of the cells in that class, in row heights.
	AveDis float64
	// MeanDis is the plain average displacement over all movable cells.
	MeanDis float64
	// MaxDis is the largest single-cell displacement, in row heights.
	MaxDis float64
	// TotalDis is the summed displacement over all movable cells.
	TotalDis float64
	// Moved counts movable cells whose position differs from global placement.
	Moved int
	// Movable counts movable cells.
	Movable int
}

// Measure computes quality metrics for the layout against the stored
// global-placement positions.
func Measure(l *Layout) Metrics {
	var m Metrics
	maxH := l.MaxHeight()
	sumByH := make([]float64, maxH+1)
	cntByH := make([]int, maxH+1)
	rh := float64(l.RowHeight)
	if rh == 0 {
		rh = 1
	}
	for i := range l.Cells {
		c := &l.Cells[i]
		if c.Fixed {
			continue
		}
		m.Movable++
		d := float64(c.Displacement(l.RowHeight)) / rh
		m.TotalDis += d
		if d > m.MaxDis {
			m.MaxDis = d
		}
		if c.X != c.GX || c.Y != c.GY {
			m.Moved++
		}
		sumByH[c.H] += d
		cntByH[c.H]++
	}
	if m.Movable > 0 {
		m.MeanDis = m.TotalDis / float64(m.Movable)
	}
	classes := 0
	for h := 1; h <= maxH; h++ {
		if cntByH[h] > 0 {
			m.AveDis += sumByH[h] / float64(cntByH[h])
			classes++
		}
	}
	if classes > 0 {
		m.AveDis /= float64(classes)
	}
	return m
}
