"""The four canonical cases, side by side.

Crosses equal/unequal error spread with equal/unequal scaling of the
common signal:

  a: same precision, no real trend      -> both analyses agree (no trend)
  b: same precision, real trend         -> both analyses agree (trend)
  c: unequal precision, no real trend   -> classic fakes a trend, weighted doesn't
  d: unequal precision, real trend      -> classic hides the trend, weighted finds it

Case d is the dangerous one: the precision artifact and the real trend
cancel almost exactly on the mean axis, so the classic plot looks clean.

Run:  python demos/02_four_case_comparison.py
"""

from methodagree import preset_results
from methodagree.io import format_table

entries = preset_results()
print(format_table(entries))

print("reading guide:")
print("  row c, mean axis: r=0.22, p=0.03 -- a spurious 'trend' from precision alone")
print("  row c, weighted : r=0.00, p=1.00 -- corrected")
print("  row d, mean axis: k=0.01, p=0.91 -- a real trend masked by the artifact")
print("  row d, weighted : k=-0.10, p=0.03 -- the real trend recovered")
