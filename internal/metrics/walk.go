package metrics

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

var float64Type = reflect.TypeOf(0.0)

// walk reads a snapshot value — typically the /statsz response — and
// returns the metric families its struct tags declare, each sample
// carrying the field's current value. The rules:
//
//   - A numeric or bool field tagged metric:"<family>" help:"<text>"
//     is one sample of that family; a bool renders as 0 or 1. The kind
//     follows the naming contract: a name ending _total is a counter,
//     anything else a gauge.
//   - metric:"-" marks a field with no metric twin; its help tag must
//     give the reason.
//   - Structs, pointers, interfaces and slices are walked through (nil
//     is skipped), whatever their json tags say — omitempty drops a
//     field from /statsz, never a family from /metricsz.
//   - A struct's string field tagged label:"<name>" labels every
//     sample beneath that struct (a slice element's identity).
//   - A map field tagged label:"<name>" walks its entries in sorted key
//     order, each labeled <name>=<key>.
//
// Anything else is an error: a numeric or bool field without a metric
// or help tag, an invalid name, a map without a label tag, or two
// samples of one family with the same labels (a slice element with no
// label field, say).
func walk(v any) (map[string]*family, error) {
	w := walker{fams: make(map[string]*family), series: make(map[string]bool)}
	if err := w.value(reflect.ValueOf(v), nil); err != nil {
		return nil, err
	}
	return w.fams, nil
}

// walker collects the families of one snapshot.
type walker struct {
	fams   map[string]*family
	series map[string]bool // family name + labels already sampled
}

// value walks v, whose samples carry labels.
func (w walker) value(v reflect.Value, labels []Label) error {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return w.value(v.Elem(), labels)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if err := w.value(v.Index(i), labels); err != nil {
				return err
			}
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if name := t.Field(i).Tag.Get("label"); name != "" && t.Field(i).Type.Kind() == reflect.String {
				labels = withLabel(labels, name, v.Field(i).String())
			}
		}
		for i := 0; i < t.NumField(); i++ {
			f, fv := t.Field(i), v.Field(i)
			where := t.String() + "." + f.Name
			var err error
			switch k := f.Type.Kind(); {
			case !f.IsExported() || k == reflect.String:
			case k == reflect.Bool || f.Type.ConvertibleTo(float64Type):
				err = w.leaf(f, fv, where, labels)
			case k == reflect.Map:
				err = w.entries(f, fv, where, labels)
			default:
				err = w.value(fv, labels)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// entries walks a labeled map field's values in sorted key order.
func (w walker) entries(f reflect.StructField, v reflect.Value, where string, labels []Label) error {
	name := f.Tag.Get("label")
	if name == "" || f.Type.Key().Kind() != reflect.String {
		return fmt.Errorf("metrics: %s: a map needs string keys and a label:\"<name>\" tag", where)
	}
	keys := v.MapKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		if err := w.value(v.MapIndex(k), withLabel(labels, name, k.String())); err != nil {
			return err
		}
	}
	return nil
}

// leaf records one numeric or bool field as a sample of its family.
func (w walker) leaf(f reflect.StructField, v reflect.Value, where string, labels []Label) error {
	name, help := f.Tag.Get("metric"), f.Tag.Get("help")
	switch {
	case name == "":
		return fmt.Errorf("metrics: %s has no metric tag: declare its family, or mark it metric:\"-\" with the reason in help", where)
	case strings.TrimSpace(help) == "":
		return fmt.Errorf("metrics: %s (%s) has no help tag", where, name)
	case name == "-":
		return nil
	case !validName(name):
		return fmt.Errorf("metrics: %s: invalid metric name %q", where, name)
	}
	id := name
	for _, l := range labels {
		if !validName(l.Name) {
			return fmt.Errorf("metrics: %s: invalid label name %q", where, l.Name)
		}
		id += "\x00" + l.Name + "=" + l.Value
	}
	if w.series[id] {
		return fmt.Errorf("metrics: %s: %s sampled twice with labels %v", where, name, labels)
	}
	w.series[id] = true
	fam := w.fams[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: KindGauge}
		if strings.HasSuffix(name, "_total") {
			fam.kind = KindCounter
		}
		w.fams[name] = fam
	}
	x := 0.0
	if v.Kind() != reflect.Bool {
		x = v.Convert(float64Type).Float()
	} else if v.Bool() {
		x = 1
	}
	fam.samples = append(fam.samples, sample{labels: labels, value: x})
	return nil
}

// withLabel returns labels plus name=value, never sharing the backing
// array with labels, so samples already recorded keep their own.
func withLabel(labels []Label, name, value string) []Label {
	return append(labels[:len(labels):len(labels)], Label{Name: name, Value: value})
}
