package repro.mi

/** The k-nearest-neighbour core shared by the KSG-family estimators
  * ([[Ksg]], [[MixedKsg]], [[DcKsg]]), which are formula layers over its two
  * operations. Inputs must be finite: [[MI.estimate]] returns NaN before
  * reaching here otherwise, since the range count needs a total order.
  */
private[mi] object Knn {

  /** For each point i of a paired sample: the k-th smallest joint (l-inf)
    * distance `max(|x_j - x_i|, |y_j - y_i|)` over the other points j != i,
    * and the number of points at joint distance 0, i itself included.
    * One O(N^2) scan; requires more than k points.
    */
  def joint(xs: Array[Double], ys: Array[Double], k: Int): (Array[Double], Array[Int]) = {
    val n     = xs.length
    val kth   = new Array[Double](n)
    val zeros = new Array[Int](n)
    val knn   = new Array[Double](k)
    var i     = 0
    while (i < n) {
      // k smallest joint distances to other points (tiny insertion heap).
      java.util.Arrays.fill(knn, Double.PositiveInfinity)
      var z = 1
      var j = 0
      while (j < n) {
        if (j != i) {
          val d = math.max(math.abs(xs(j) - xs(i)), math.abs(ys(j) - ys(i)))
          if (d == 0.0) z += 1
          if (d < knn(k - 1)) {
            var p = k - 1
            while (p > 0 && knn(p - 1) > d) { knn(p) = knn(p - 1); p -= 1 }
            knn(p) = d
          }
        }
        j += 1
      }
      kth(i) = knn(k - 1)
      zeros(i) = z
      i += 1
    }
    (kth, zeros)
  }

  /** Ascending copy of a marginal, the input [[count]] searches. */
  def sorted(a: Array[Double]): Array[Double] = {
    val s = a.clone()
    java.util.Arrays.sort(s)
    s
  }

  /** `#{s in sorted : |s - v| < r}`, or `<= r` when `inclusive`; elements
    * equal to v count. Float subtraction is monotone, so `|s - v|` falls and
    * then rises along the sorted array: the elements that pass form one run,
    * and two binary searches on the same predicate find its ends. The count
    * is therefore exactly what a loop over all elements would give.
    */
  def count(sorted: Array[Double], v: Double, r: Double, inclusive: Boolean): Int = {
    def within(s: Double): Boolean = {
      val d = math.abs(s - v)
      if (inclusive) d <= r else d < r
    }
    // Elements equal to v are at distance 0; if they fail, every element does.
    if (!within(v)) 0
    else firstIndex(sorted, s => s > v && !within(s)) - firstIndex(sorted, s => s >= v || within(s))
  }

  /** First index of a sorted array where a predicate that is false on a
    * prefix and true on the rest holds; the array length if it never does.
    */
  private def firstIndex(a: Array[Double], p: Double => Boolean): Int = {
    var lo = 0
    var hi = a.length
    while (lo < hi) {
      val m = (lo + hi) >>> 1
      if (p(a(m))) hi = m else lo = m + 1
    }
    lo
  }
}
