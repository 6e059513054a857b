// Package spatial implements the paper's §4 extension: spatial constraint
// relations keyed by feature IDs, and the whole-feature operators
// Buffer-Join and k-Nearest.
//
// # Safety (§2.4, §4)
//
// A CQA query must be evaluable in closed form: its output must be
// representable in the input constraint class (rational linear
// constraints). The raw distance operator violates this — the Euclidean
// distance between rational features is generally irrational (sqrt), so a
// query that *returns distances* is unsafe. The paper's resolution is
// whole-feature operators: Buffer-Join and k-Nearest *compare* distances
// internally but return only relations over feature IDs, which are plain
// relational data — trivially representable, hence safe.
//
// Internally every comparison is done on exact squared distances (which
// are rational), so the operators are not just safe but exact: no epsilon,
// no rounding, ties are real ties.
package spatial

import (
	"fmt"

	"cdb/internal/geometry"
	"cdb/internal/rational"
)

// GeomKind discriminates Geometry.
type GeomKind int

const (
	// KindPoint is a point feature (a landmark, a sensor).
	KindPoint GeomKind = iota
	// KindLine is a polyline feature (a road, a river, a hurricane track).
	KindLine
	// KindRegion is a polygon feature (a land parcel, a lake, a town).
	KindRegion
)

func (k GeomKind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindLine:
		return "line"
	default:
		return "region"
	}
}

// Geometry is the geometry of one spatial feature: a point, polyline, or
// polygon, with exact rational coordinates.
type Geometry struct {
	kind   GeomKind
	pt     geometry.Point
	line   geometry.Polyline
	region geometry.Polygon
}

// PointGeom wraps a point.
func PointGeom(p geometry.Point) Geometry { return Geometry{kind: KindPoint, pt: p} }

// LineGeom wraps a polyline.
func LineGeom(l geometry.Polyline) Geometry { return Geometry{kind: KindLine, line: l} }

// RegionGeom wraps a polygon.
func RegionGeom(p geometry.Polygon) Geometry { return Geometry{kind: KindRegion, region: p} }

// Kind returns the geometry kind.
func (g Geometry) Kind() GeomKind { return g.kind }

// Point returns the point payload (valid for KindPoint).
func (g Geometry) Point() geometry.Point { return g.pt }

// Line returns the polyline payload (valid for KindLine).
func (g Geometry) Line() geometry.Polyline { return g.line }

// Region returns the polygon payload (valid for KindRegion).
func (g Geometry) Region() geometry.Polygon { return g.region }

// BBox returns the exact bounding box of the geometry.
func (g Geometry) BBox() (minX, minY, maxX, maxY rational.Rat) {
	switch g.kind {
	case KindPoint:
		return g.pt.X, g.pt.Y, g.pt.X, g.pt.Y
	case KindLine:
		return g.line.BBox()
	default:
		return g.region.BBox()
	}
}

func (g Geometry) String() string {
	switch g.kind {
	case KindPoint:
		return fmt.Sprintf("point %s", g.pt)
	case KindLine:
		return fmt.Sprintf("line %s", g.line)
	default:
		return fmt.Sprintf("region %s", g.region)
	}
}

// SqDist returns the exact squared Euclidean distance between two
// geometries (zero when they touch or overlap).
func SqDist(a, b Geometry) rational.Rat {
	switch a.kind {
	case KindPoint:
		switch b.kind {
		case KindPoint:
			return a.pt.SqDist(b.pt)
		case KindLine:
			return b.line.SqDistToPoint(a.pt)
		default:
			return b.region.SqDistToPoint(a.pt)
		}
	case KindLine:
		switch b.kind {
		case KindPoint:
			return a.line.SqDistToPoint(b.pt)
		case KindLine:
			return a.line.SqDistToPolyline(b.line)
		default:
			return a.line.SqDistToPolygon(b.region)
		}
	default:
		switch b.kind {
		case KindPoint:
			return a.region.SqDistToPoint(b.pt)
		case KindLine:
			return b.line.SqDistToPolygon(a.region)
		default:
			return a.region.SqDistToPolygon(b.region)
		}
	}
}
