// Package render implements the display side of §6's conversion argument:
//
//	"When displaying a feature as part of data visualization or query
//	 output, the reverse conversion must take place. In order to display
//	 a feature, its boundary points have to be computed from the
//	 constraints. The spatial outlines corresponding to each tuple must
//	 be found and combined together to obtain the feature boundary."
//
// It renders feature layers and spatial constraint relations as SVG: the
// constraint-side path runs ConjunctionVertices/ConvexHull per tuple (the
// §6 reverse conversion, exact), then rounds only at the final
// coordinate-printing step.
package render

import (
	"fmt"
	"strings"

	"cdb/internal/geometry"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/spatial"
)

// Options tune the SVG output. The zero value picks sensible defaults.
type Options struct {
	// Width of the SVG viewport in pixels (height follows the data's
	// aspect ratio). Default 640.
	Width int
	// Margin in data units added around the bounding box. Default: 5% of
	// the larger data extent.
	Margin float64
	// Labels draws feature IDs at geometry anchors. Default true-ish via
	// NoLabels.
	NoLabels bool
}

// palette cycles deterministic feature colours.
var palette = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759",
	"#76b7b2", "#edc948", "#b07aa1", "#9c755f",
}

type canvas struct {
	b                      strings.Builder
	minX, minY, maxX, maxY float64
	scale                  float64
	width, height          int
}

// Layer renders a feature layer to an SVG document.
func Layer(l *spatial.Layer, opts Options) (string, error) {
	return Layers([]*spatial.Layer{l}, opts)
}

// Layers renders several layers into one SVG document (shared scale).
func Layers(ls []*spatial.Layer, opts Options) (string, error) {
	var feats []spatial.Feature
	for _, l := range ls {
		feats = append(feats, l.Features()...)
	}
	if len(feats) == 0 {
		return "", fmt.Errorf("render: nothing to draw")
	}
	c, err := newCanvas(feats, opts)
	if err != nil {
		return "", err
	}
	for i, f := range feats {
		c.feature(f, palette[i%len(palette)], !opts.NoLabels)
	}
	return c.finish(), nil
}

// Relation renders a spatial constraint relation: the §6 reverse
// conversion (constraints → vertex lists) followed by drawing. Tuples
// sharing a feature ID share a colour.
func Relation(r *relation.Relation, fidName, xVar, yVar string, opts Options) (string, error) {
	groups, order, err := spatial.RelationGeometries(r, fidName, xVar, yVar)
	if err != nil {
		return "", err
	}
	var feats []spatial.Feature
	colorOf := map[string]string{}
	for i, id := range order {
		colorOf[id] = palette[i%len(palette)]
		for k, g := range groups[id] {
			fid := id
			if len(groups[id]) > 1 {
				fid = fmt.Sprintf("%s#%d", id, k+1)
			}
			feats = append(feats, spatial.Feature{ID: fid, Geom: g})
		}
	}
	if len(feats) == 0 {
		return "", fmt.Errorf("render: nothing to draw")
	}
	c, err := newCanvas(feats, opts)
	if err != nil {
		return "", err
	}
	for _, f := range feats {
		base := f.ID
		if i := strings.IndexByte(base, '#'); i >= 0 {
			base = base[:i]
		}
		// Label only the first piece of a feature.
		label := !opts.NoLabels && (f.ID == base || strings.HasSuffix(f.ID, "#1"))
		c.feature(f, colorOf[base], label)
	}
	return c.finish(), nil
}

func newCanvas(feats []spatial.Feature, opts Options) (*canvas, error) {
	width := opts.Width
	if width <= 0 {
		width = 640
	}
	c := &canvas{width: width}
	first := true
	for _, f := range feats {
		minX, minY, maxX, maxY := f.Geom.BBox()
		fx, fy := float(minX), float(minY)
		gx, gy := float(maxX), float(maxY)
		if first {
			c.minX, c.minY, c.maxX, c.maxY = fx, fy, gx, gy
			first = false
			continue
		}
		c.minX, c.minY = minF(c.minX, fx), minF(c.minY, fy)
		c.maxX, c.maxY = maxF(c.maxX, gx), maxF(c.maxY, gy)
	}
	margin := opts.Margin
	if margin <= 0 {
		margin = 0.05 * maxF(c.maxX-c.minX, c.maxY-c.minY)
		if margin == 0 {
			margin = 1
		}
	}
	c.minX -= margin
	c.minY -= margin
	c.maxX += margin
	c.maxY += margin
	spanX, spanY := c.maxX-c.minX, c.maxY-c.minY
	c.scale = float64(c.width) / spanX
	c.height = int(spanY*c.scale + 0.5)
	if c.height < 1 {
		c.height = 1
	}
	fmt.Fprintf(&c.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		c.width, c.height, c.width, c.height)
	fmt.Fprintf(&c.b, `<rect width="%d" height="%d" fill="#fafafa"/>`+"\n", c.width, c.height)
	return c, nil
}

func (c *canvas) pt(p geometry.Point) (float64, float64) {
	// SVG y grows downward: flip.
	x := (float(p.X) - c.minX) * c.scale
	y := (c.maxY - float(p.Y)) * c.scale
	return x, y
}

func (c *canvas) feature(f spatial.Feature, color string, label bool) {
	var anchor geometry.Point
	switch f.Geom.Kind() {
	case spatial.KindPoint:
		p := f.Geom.Point()
		x, y := c.pt(p)
		fmt.Fprintf(&c.b, `<circle cx="%.2f" cy="%.2f" r="4" fill="%s"><title>%s</title></circle>`+"\n",
			x, y, color, escape(f.ID))
		anchor = p
	case spatial.KindLine:
		verts := f.Geom.Line().Vertices()
		var pts []string
		for _, v := range verts {
			x, y := c.pt(v)
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", x, y))
		}
		fmt.Fprintf(&c.b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"><title>%s</title></polyline>`+"\n",
			strings.Join(pts, " "), color, escape(f.ID))
		anchor = verts[0]
	default:
		verts := f.Geom.Region().Vertices()
		var pts []string
		for _, v := range verts {
			x, y := c.pt(v)
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", x, y))
		}
		fmt.Fprintf(&c.b, `<polygon points="%s" fill="%s" fill-opacity="0.35" stroke="%s" stroke-width="1.5"><title>%s</title></polygon>`+"\n",
			strings.Join(pts, " "), color, color, escape(f.ID))
		anchor = verts[0]
	}
	if label {
		x, y := c.pt(anchor)
		fmt.Fprintf(&c.b, `<text x="%.2f" y="%.2f" font-size="11" font-family="sans-serif" fill="#333">%s</text>`+"\n",
			x+5, y-5, escape(f.ID))
	}
}

func (c *canvas) finish() string {
	c.b.WriteString("</svg>\n")
	return c.b.String()
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// float is r's nearest float64: a drawing coordinate.
func float(r rational.Rat) float64 {
	f, _ := r.Float64()
	return f
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
