package repro.sketch

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.mi.{EstimatorKind, MI, NumCol}
import repro.sketch.Sketch.SketchConf
import repro.stats.Rng
import repro.synth.{CDUnif, Decompose}

class SketchJoinSpec extends SparkSpec {
  import spark.implicits._

  test("sketch-join pairs are a subset of the full-join pairs (every scheme)") {
    val rng      = new Rng(1)
    val (xi, yd) = CDUnif.sample(rng, 30, 2000)
    val pair     = Decompose(spark, xi.map(_.toDouble), yd, Decompose.KeyDep)
    pair.train.cache(); pair.cand.cache()
    val full = pair.train.join(pair.cand.groupBy("k").agg(first("x") as "x"), "k")
      .select("x", "y").collect().map(r => (r.getDouble(0), r.getDouble(1))).toSet
    for (sk <- Sketcher.all) {
      val conf   = SketchConf(128)
      val s = Sketch.collectSample(Sketch.join(
        sk.sketchLeft(pair.train, "k", "y", conf),
        sk.sketchRight(pair.cand, "k", "x", AggFn.First, conf)))
      val pairs = s.x.asInstanceOf[NumCol].values.zip(s.y.asInstanceOf[NumCol].values).toSet
      assert(pairs.subsetOf(full), s"${sk.name}: sampled pairs not in the full join")
    }
    pair.train.unpersist(); pair.cand.unpersist()
  }

  test("sketch-join of materialized sketches agrees with DuckDB") {
    val left  = spark.range(0, 500).select(col("id") as "k", rand(2) as "y")
    val right = spark.range(0, 500).select(col("id") as "k", rand(3) as "x")
    val conf  = SketchConf(64)
    val l = TupSk.sketchLeft(left, "k", "y", conf).cache()
    val r = TupSk.sketchRight(right, "k", "x", AggFn.First, conf).cache()
    val s   = Sketch.collectSample(Sketch.join(l, r))
    val got = s.y.asInstanceOf[NumCol].values.zip(s.x.asInstanceOf[NumCol].values).toSeq.toDF("y", "x")
    Oracle.assertEquivalent(got,
      """SELECT CAST(l.vNum AS DOUBLE) AS y, CAST(r.vNum AS DOUBLE) AS x
        |FROM l JOIN r ON l.hkey = r.hkey""".stripMargin,
      "l" -> l.select("hkey", "vNum"), "r" -> r.select("hkey", "vNum"))
    l.unpersist(); r.unpersist()
  }

  test("collectSample types follow the sketched columns") {
    val left  = Seq(("a", "cat"), ("b", "dog")).toDF("k", "y")
    val right = Seq(("a", 1.0), ("b", 2.0)).toDF("k", "x")
    val conf  = SketchConf(10)
    val s = Sketch.collectSample(Sketch.join(
      TupSk.sketchLeft(left, "k", "y", conf),
      TupSk.sketchRight(right, "k", "x", AggFn.Avg, conf)))
    assert(s.x.isNumeric && !s.y.isNumeric)
    assert(s.size == 2)
  }

  test("TUPSK estimates converge toward the full-join estimate as n grows (Q1)") {
    val rng      = new Rng(4)
    val (xi, yd) = CDUnif.sample(rng, 20, 6000)
    val xs       = xi.map(_.toDouble)
    val pair     = Decompose(spark, xs, yd, Decompose.KeyInd)
    pair.train.cache(); pair.cand.cache()
    val fullEst = MI.estimate(EstimatorKind.MixedKSG,
      repro.mi.NumCol(xs), repro.mi.NumCol(yd))
    val errs = Seq(64, 512, 4096).map { n =>
      val conf = SketchConf(n)
      val s = Sketch.collectSample(Sketch.join(
        TupSk.sketchLeft(pair.train, "k", "y", conf),
        TupSk.sketchRight(pair.cand, "k", "x", AggFn.First, conf)))
      math.abs(MI.estimate(EstimatorKind.MixedKSG, s.x, s.y) - fullEst)
    }
    assert(errs.last < 0.12, s"errs=$errs")
    assert(errs.last <= errs.head + 0.05, s"errs should shrink: $errs")
    pair.train.unpersist(); pair.cand.unpersist()
  }

  test("at n >= N the TUPSK sketch join recovers the entire join") {
    val rng      = new Rng(5)
    val (xi, yd) = CDUnif.sample(rng, 10, 800)
    val pair     = Decompose(spark, xi.map(_.toDouble), yd, Decompose.KeyInd)
    val conf     = SketchConf(10000)
    val s = Sketch.collectSample(Sketch.join(
      TupSk.sketchLeft(pair.train, "k", "y", conf),
      TupSk.sketchRight(pair.cand, "k", "x", AggFn.First, conf)))
    assert(s.size == 800)
  }

  test("an empty table yields an empty sketch and an empty join") {
    val empty = Seq.empty[(String, Double)].toDF("k", "y")
    val right = Seq(("a", 1.0)).toDF("k", "x")
    val conf  = SketchConf(16)
    val (l, r) = Sketch.join(
      TupSk.sketchLeft(empty, "k", "y", conf),
      TupSk.sketchRight(right, "k", "x", AggFn.First, conf))
    assert(l.size == 0 && r.size == 1)
    val s = Sketch.merge(l, r)
    assert(s.size == 0)
  }
}
