package repro.mi

import repro.stats.SpecialFunctions.digamma
import scala.collection.mutable

/** Reference copies of the KSG-family estimators as they were before they
  * shared [[Knn]]: the O(N^2) loops over all pairs of points, and DC-KSG with
  * its own range count. The property tests compare the estimators against
  * them.
  */
object KnnOracle {
  def ksg(xs: Array[Double], ys: Array[Double], k: Int = MI.DefaultK): Double = {
    val n = xs.length
    require(ys.length == n, "KSG: size mismatch")
    require(n > k + 1, s"KSG needs more than k+1=${k + 1} samples, got $n")
    var acc = 0.0
    val knn = new Array[Double](k)
    var i   = 0
    while (i < n) {
      // k smallest joint distances to other points (tiny insertion heap).
      java.util.Arrays.fill(knn, Double.PositiveInfinity)
      var j = 0
      while (j < n) {
        if (j != i) {
          val d = math.max(math.abs(xs(j) - xs(i)), math.abs(ys(j) - ys(i)))
          if (d < knn(k - 1)) {
            var p = k - 1
            while (p > 0 && knn(p - 1) > d) { knn(p) = knn(p - 1); p -= 1 }
            knn(p) = d
          }
        }
        j += 1
      }
      val eps = knn(k - 1)
      var nx  = 0
      var ny  = 0
      j = 0
      while (j < n) {
        if (j != i) {
          if (math.abs(xs(j) - xs(i)) < eps) nx += 1
          if (math.abs(ys(j) - ys(i)) < eps) ny += 1
        }
        j += 1
      }
      acc += digamma(nx + 1.0) + digamma(ny + 1.0)
      i += 1
    }
    math.max(0.0, digamma(k.toDouble) + digamma(n.toDouble) - acc / n)
  }

  def mixedKsg(xs: Array[Double], ys: Array[Double], k: Int = MI.DefaultK): Double = {
    val n = xs.length
    require(ys.length == n, "MixedKSG: size mismatch")
    require(n > k + 1, s"MixedKSG needs more than k+1=${k + 1} samples, got $n")
    val logN = math.log(n.toDouble)
    var acc  = 0.0
    val knn  = new Array[Double](k)
    var i    = 0
    while (i < n) {
      java.util.Arrays.fill(knn, Double.PositiveInfinity)
      var j = 0
      while (j < n) {
        if (j != i) {
          val d = math.max(math.abs(xs(j) - xs(i)), math.abs(ys(j) - ys(i)))
          if (d < knn(k - 1)) {
            var p = k - 1
            while (p > 0 && knn(p - 1) > d) { knn(p) = knn(p - 1); p -= 1 }
            knn(p) = d
          }
        }
        j += 1
      }
      val rho = knn(k - 1)
      var kp  = 1 // counts include the point itself, as in the reference impl
      var nx  = 1
      var ny  = 1
      j = 0
      while (j < n) {
        if (j != i) {
          val dx = math.abs(xs(j) - xs(i))
          val dy = math.abs(ys(j) - ys(i))
          if (rho == 0.0) {
            if (dx == 0.0 && dy == 0.0) kp += 1
            if (dx == 0.0) nx += 1
            if (dy == 0.0) ny += 1
          } else {
            if (dx < rho) nx += 1
            if (dy < rho) ny += 1
          }
        }
        j += 1
      }
      val kTilde = if (rho == 0.0) kp else k
      acc += digamma(kTilde.toDouble) + logN - digamma(nx.toDouble) - digamma(ny.toDouble)
      i += 1
    }
    math.max(0.0, acc / n)
  }

  /** DC-KSG with a pluggable global count of the points within r of y (self
    * included); the default is its count before the shared core.
    */
  def dcKsg(classes: IndexedSeq[AnyRef], cont: Array[Double], k: Int = MI.DefaultK,
            count: (Array[Double], Double, Double) => Int = intervalCount): Double = {
    val n0 = cont.length
    require(classes.size == n0, "DC-KSG: size mismatch")
    require(n0 > k + 1, s"DC-KSG needs more than k+1=${k + 1} samples, got $n0")

    // Group point indices by class.
    val groups = mutable.LinkedHashMap.empty[AnyRef, mutable.ArrayBuffer[Int]]
    var i = 0
    while (i < n0) {
      groups.getOrElseUpdate(classes(i), mutable.ArrayBuffer.empty[Int]) += i
      i += 1
    }

    // Keep only points whose class has more than one member.
    val kept = groups.valuesIterator.filter(_.size > 1).flatten.toArray
    val n    = kept.length
    if (n <= k) return 0.0

    // Sorted continuous values over the kept points, for global range counts.
    val sortedY = kept.map(cont(_)).sorted

    var sumPsiK = 0.0
    var sumPsiC = 0.0
    var sumPsiM = 0.0
    for (g <- groups.valuesIterator if g.size > 1) {
      val cSize = g.size
      val ki    = math.min(k, cSize - 1)
      val gy    = g.map(cont(_)).toArray.sorted
      var p     = 0
      while (p < cSize) {
        val yi = gy(p)
        // k_i-th NN distance within the class via two-pointer window growth
        // on the sorted class values (self excluded).
        var lo = p; var hi = p; var found = 0; var r = 0.0
        while (found < ki) {
          val dLo = if (lo > 0) yi - gy(lo - 1) else Double.PositiveInfinity
          val dHi = if (hi < cSize - 1) gy(hi + 1) - yi else Double.PositiveInfinity
          if (dLo <= dHi) { lo -= 1; r = dLo } else { hi += 1; r = dHi }
          found += 1
        }
        // Global count of points within r of y_i (excluding self).
        val mi = count(sortedY, yi, r) - 1
        sumPsiK += digamma(ki.toDouble)
        sumPsiC += digamma(cSize.toDouble)
        sumPsiM += digamma(math.max(1, mi).toDouble)
        p += 1
      }
    }
    val est = digamma(n.toDouble) + (sumPsiK - sumPsiC - sumPsiM) / n
    math.max(0.0, est)
  }

  /** The points inside [y - r, y + r]. The ends are rounded, so this can miss
    * a point at distance exactly r: with y = 1.0 and r = 1.0 - 0.3, the lower
    * end 1.0 - r rounds to 0.30000000000000004 and leaves 0.3 out.
    */
  def intervalCount(sorted: Array[Double], y: Double, r: Double): Int =
    upperBound(sorted, y + r) - lowerBound(sorted, y - r)

  /** The points with |s - y| <= r, by a scan: DC-KSG's definition. */
  def scanCount(sorted: Array[Double], y: Double, r: Double): Int =
    sorted.count(s => math.abs(s - y) <= r)

  /** First index with a(i) >= v. */
  private def lowerBound(a: Array[Double], v: Double): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) { val m = (lo + hi) >>> 1; if (a(m) < v) lo = m + 1 else hi = m }
    lo
  }

  /** First index with a(i) > v. */
  private def upperBound(a: Array[Double], v: Double): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) { val m = (lo + hi) >>> 1; if (a(m) <= v) lo = m + 1 else hi = m }
    lo
  }
}
