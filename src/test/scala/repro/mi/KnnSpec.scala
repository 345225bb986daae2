package repro.mi

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** The KSG-family estimators over the shared k-NN core against the O(N^2)
  * loops they replaced ([[KnnOracle]]). KSG and MixedKSG must match bit for
  * bit: the core finds the same k-th distances and the same counts, and the
  * sums run in the same order.
  */
class KnnSpec extends AnyFunSuite {

  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }

  private def sameBits(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)

  /** Marginal value distributions: random doubles at one scale or spread
    * over many magnitudes, and tie-heavy small integers.
    */
  private val genMarginal: Gen[Gen[Double]] = Gen.oneOf(
    Gen.const(Gen.choose(-1.0, 1.0)),
    Gen.const(for { m <- Gen.choose(-1.0, 1.0); e <- Gen.choose(-6, 6) } yield m * math.pow(10, e)),
    Gen.const(Gen.choose(-3, 3).map(_.toDouble)),
    Gen.const(Gen.choose(0, 1).map(_.toDouble)),
  )

  /** k, and n = k+2..300 paired points, optionally drawn with replacement
    * from fewer distinct points so that exact duplicates occur.
    */
  private val genSample: Gen[(Int, Array[Double], Array[Double])] = for {
    k   <- Gen.oneOf(1, 3, 5)
    n   <- Gen.choose(k + 2, 300)
    gx  <- genMarginal
    gy  <- genMarginal
    dup <- Gen.oneOf(false, true)
    m   <- if (dup) Gen.choose(1, n) else Gen.const(n)
    xs  <- Gen.listOfN(m, gx)
    ys  <- Gen.listOfN(m, gy)
    idx <- if (dup) Gen.listOfN(n, Gen.choose(0, m - 1)) else Gen.const(0 until n)
  } yield (k, idx.map(xs).toArray, idx.map(ys).toArray)

  test("KSG equals the O(N^2) oracle bit for bit") {
    check(Prop.forAll(genSample) { case (k, xs, ys) =>
      sameBits(Ksg.mi(xs, ys, k), KnnOracle.ksg(xs, ys, k))
    })
  }

  test("MixedKSG equals the O(N^2) oracle bit for bit") {
    check(Prop.forAll(genSample) { case (k, xs, ys) =>
      sameBits(MixedKsg.mi(xs, ys, k), KnnOracle.mixedKsg(xs, ys, k))
    })
  }

  test("samples whose k-th joint distance is 0 match the oracle") {
    val xs = Array(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.0, 1.0, 2.0)
    val ys = Array(5.0, 5.0, 5.0, 5.0, 5.0, 6.0, 6.0, 5.0, 6.0, 7.0)
    val (kth, zeros) = Knn.joint(xs, ys, 3)
    assert(kth(0) == 0.0 && zeros(0) == 5 && kth(9) > 0.0 && zeros(9) == 1)
    for (k <- Seq(1, 3, 5)) {
      assert(sameBits(Ksg.mi(xs, ys, k), KnnOracle.ksg(xs, ys, k)), s"k=$k")
      assert(sameBits(MixedKsg.mi(xs, ys, k), KnnOracle.mixedKsg(xs, ys, k)), s"k=$k")
    }
  }

  test("the range count equals a scan of the sorted marginal") {
    val gen = for {
      g   <- genMarginal
      a   <- Gen.nonEmptyListOf(g)
      v   <- Gen.oneOf(Gen.oneOf(a), g)
      r   <- Gen.oneOf(Gen.const(0.0), Gen.oneOf(a).map(s => math.abs(s - v)), g.map(math.abs))
      inc <- Gen.oneOf(false, true)
    } yield (Knn.sorted(a.toArray), v, r, inc)
    check(Prop.forAll(gen) { case (sorted, v, r, inc) =>
      val want = sorted.count(s => if (inc) math.abs(s - v) <= r else math.abs(s - v) < r)
      Knn.count(sorted, v, r, inc) == want
    })
  }

  private def classesFor(ys: Array[Double]): Gen[IndexedSeq[AnyRef]] = for {
    nClasses <- Gen.choose(1, 8)
    cls      <- Gen.listOfN(ys.length, Gen.choose(0, nClasses - 1))
  } yield cls.map(c => Integer.valueOf(c): AnyRef).toIndexedSeq

  test("DC-KSG equals its definition, a scan for |y_j - y_i| <= r_i, bit for bit") {
    val gen = for { (k, ys, _) <- genSample; cls <- classesFor(ys) } yield (k, cls, ys)
    check(Prop.forAll(gen) { case (k, cls, ys) =>
      sameBits(DcKsg.mi(cls, ys, k), KnnOracle.dcKsg(cls, ys, k, KnnOracle.scanCount))
    })
  }

  test("DC-KSG stays within 1e-12 of its pre-change copy where y +- r is exact") {
    // Multiples of 1/8 below 2^20 add and subtract without rounding, so the
    // old interval count [y - r, y + r] and the distance count agree.
    val gen = for {
      k   <- Gen.oneOf(1, 3, 5)
      n   <- Gen.choose(k + 2, 300)
      ys  <- Gen.listOfN(n, Gen.oneOf(Gen.choose(-3, 3).map(_.toDouble),
                                      Gen.choose(-8000, 8000).map(_ / 8.0)))
      cls <- classesFor(ys.toArray)
    } yield (k, cls, ys.toArray)
    check(Prop.forAll(gen) { case (k, cls, ys) =>
      math.abs(DcKsg.mi(cls, ys, k) - KnnOracle.dcKsg(cls, ys, k)) <= 1e-12
    })
  }

  test("DC-KSG counts the in-class neighbour that sets the radius") {
    // For y = 1.0 the 2nd in-class neighbour is 0.3 at r = 1.0 - 0.3; the old
    // interval count left 0.3 out because 1.0 - r rounds above it.
    val cls = IndexedSeq("a", "a", "a", "b", "b", "b")
    val ys  = Array(1.0, 0.3, 1.6, 5.0, 5.1, 5.2)
    val est = DcKsg.mi(cls, ys, 2)
    assert(sameBits(est, KnnOracle.dcKsg(cls, ys, 2, KnnOracle.scanCount)))
    assert(est != KnnOracle.dcKsg(cls, ys, 2), s"est=$est")
  }
}
