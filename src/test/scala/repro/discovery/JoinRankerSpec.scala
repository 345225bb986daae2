package repro.discovery

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.discovery.JoinRanker.{Candidate, Ranked}
import repro.mi.MI
import repro.sketch.{AggFn, Sketch, SketchJoinOracle, TupSk}
import repro.sketch.Sketch.{SketchConf, SketchData}
import repro.stats.Rng
import repro.synth.OpenDataGen
import scala.jdk.CollectionConverters._

class JoinRankerSpec extends SparkSpec {
  import spark.implicits._

  /** Train table keyed by id with a numeric target driven by a latent score. */
  private def fixtures(seed: Long) = {
    val rng   = new Rng(seed)
    val n     = 3000
    val score = Array.fill(n)(rng.nextDouble())
    val train = (0 until n).map(i => (i.toLong, 10 * score(i) + 0.1 * rng.nextGaussian()))
      .toDF("k", "y")
    def cand(dep: Double, seed2: Long) = {
      val r2 = new Rng(seed2)
      (0 until n).map { i =>
        val v = dep * score(i) + (1 - dep) * r2.nextDouble()
        (i.toLong, v)
      }.toDF("k", "x")
    }
    (train, cand _)
  }

  test("a strongly related candidate ranks above an unrelated one") {
    val (train, cand) = fixtures(1)
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(
        Candidate("strong", cand(0.95, 11), "k", "x", AggFn.Avg),
        Candidate("medium", cand(0.5, 12), "k", "x", AggFn.Avg),
        Candidate("noise", cand(0.0, 13), "k", "x", AggFn.Avg),
      ),
      Sketch.SketchConf(512))
    assert(ranked.map(_.name) == Seq("strong", "medium", "noise"),
      ranked.map(r => s"${r.name}=${r.estimatedMI}").mkString(", "))
  }

  test("non-joinable candidates fall to the bottom with NaN estimates") {
    val (train, cand) = fixtures(2)
    val disjoint = (100000 until 101000).map(i => (i.toLong, 1.0)).toDF("k", "x")
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(
        Candidate("joinable", cand(0.9, 21), "k", "x", AggFn.Avg),
        Candidate("disjoint", disjoint, "k", "x", AggFn.Avg),
      ),
      Sketch.SketchConf(256))
    assert(ranked.head.name == "joinable")
    assert(ranked.last.name == "disjoint" && ranked.last.estimatedMI.isNaN)
    assert(ranked.last.sketchJoinSize == 0)
  }

  test("ranking reports the estimator chosen per candidate's types") {
    val (train, cand) = fixtures(3)
    val strCand = (0 until 3000).map(i => (i.toLong, s"c${i % 7}")).toDF("k", "x")
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(
        Candidate("numeric", cand(0.5, 31), "k", "x", AggFn.Avg),
        Candidate("string", strCand, "k", "x", AggFn.Mode),
      ),
      Sketch.SketchConf(256))
    assert(ranked.find(_.name == "numeric").get.estimator == "MixedKSG")
    assert(ranked.find(_.name == "string").get.estimator == "DC-KSG")
  }

  test("sketch-based ranking agrees with full-join MI ranking") {
    val (train, cand) = fixtures(4)
    val deps = Seq(0.1, 0.5, 0.9)
    val cands = deps.zipWithIndex.map { case (d, i) =>
      Candidate(s"c$d", cand(d, 40 + i), "k", "x", AggFn.Avg)
    }
    val ranked = JoinRanker.rank(train, "k", "y", cands, Sketch.SketchConf(1024))
    // Full-join reference ordering.
    val fullOrder = cands.map { c =>
      val joined = train.join(c.df.groupBy("k").agg(avg("x") as "x"), "k")
        .select("x", "y").collect()
      val mi = repro.mi.MixedKsg.mi(joined.map(_.getDouble(0)).take(3000),
                                    joined.map(_.getDouble(1)).take(3000))
      c.name -> mi
    }.sortBy(-_._2).map(_._1)
    assert(ranked.map(_.name) == fullOrder)
  }

  /** A WBF-like base table with a numeric target and `count` OpenDataGen
    * candidates over its keys, alternating numeric (AVG) and string (MODE)
    * features, with dependence spread over [0, 1].
    */
  private def openData(count: Int): (DataFrame, Seq[Candidate]) = {
    val base  = OpenDataGen.specs("WBF", 1, 5).head.copy(yNumeric = true, dep = 0.9)
    val train = OpenDataGen.generate(spark, base).train.cache()
    val cands = (0 until count).map { i =>
      val spec = base.copy(xNumeric = i % 2 == 0, dep = (i + 0.5) / count, rightDupMax = 1 + i % 3)
      Candidate(s"c$i", OpenDataGen.generate(spark, spec).cand.cache(), "k", "x",
        if (spec.xNumeric) AggFn.Avg else AggFn.Mode)
    }
    (train, cands)
  }

  /** A ranking with estimates as raw bits, so NaN equals NaN. */
  private def bits(rs: Seq[Ranked]) =
    rs.map(r => (r.name, java.lang.Double.doubleToRawLongBits(r.estimatedMI), r.sketchJoinSize, r.estimator))

  test("concurrent ranking matches a serial sketch-join reference and repeats bitwise") {
    val (train, cands) = openData(10)
    val conf   = SketchConf(256)
    val ranked = JoinRanker.rank(train, "k", "y", cands, conf)
    val left   = TupSk.sketchLeft(train, "k", "y", conf).cache()
    for (c <- cands) {
      val s = SketchJoinOracle.collectSample(
        SketchJoinOracle.join(left, TupSk.sketchRight(c.df, c.key, c.value, c.agg, conf)))
      val kind = MI.auto(s.x, s.y)
      val est  = if (s.size < 10) Double.NaN else MI.estimate(kind, s.x, s.y)
      val r    = ranked.find(_.name == c.name).get
      assert(r.sketchJoinSize == s.size && r.estimator == kind.name, s"${c.name}: $r")
      assert(if (est.isNaN) r.estimatedMI.isNaN else math.abs(r.estimatedMI - est) <= 1e-12,
        s"${c.name}: ${r.estimatedMI} vs serial $est")
    }
    assert(ranked.count(_.sketchJoinSize >= 10) >= 8)
    assert(bits(JoinRanker.rank(train, "k", "y", cands, conf)) == bits(ranked))
    left.unpersist(); train.unpersist(); cands.foreach(_.df.unpersist())
  }

  test("a candidate that cannot be sketched fails the ranking with its own exception") {
    val (train, cand) = fixtures(5)
    val strCand = (0 until 3000).map(i => (i.toLong, s"c${i % 7}")).toDF("k", "x")
    def poolThreads() = Thread.getAllStackTraces.keySet.asScala.filter(_.getName.startsWith("pool-")).toSet
    val before = poolThreads()
    intercept[IllegalArgumentException] {
      JoinRanker.rank(train, "k", "y",
        Seq(
          Candidate("numeric", cand(0.5, 51), "k", "x", AggFn.Avg),
          Candidate("avgOverString", strCand, "k", "x", AggFn.Avg),
          Candidate("string", strCand, "k", "x", AggFn.Mode),
        ),
        SketchConf(64))
    }
    val left = poolThreads() -- before
    left.foreach(_.join(5000))
    assert(left.forall(!_.isAlive), s"pool threads still running: ${left.map(_.getName)}")
  }

  test("an empty train table ranks every candidate last with NaN and join size 0") {
    val (_, cand) = fixtures(6)
    val empty  = Seq.empty[(Long, Double)].toDF("k", "y")
    val strCand = (0 until 300).map(i => (i.toLong, s"c${i % 5}")).toDF("k", "x")
    val ranked = JoinRanker.rank(empty, "k", "y",
      Seq(Candidate("numeric", cand(0.9, 61), "k", "x", AggFn.Avg),
          Candidate("string", strCand, "k", "x", AggFn.Mode)),
      SketchConf(64))
    assert(ranked.map(_.name).sorted == Seq("numeric", "string"))
    assert(ranked.forall(r => r.estimatedMI.isNaN && r.sketchJoinSize == 0), ranked.toString)
  }

  test("a single-key train table joins every sketched row to that key") {
    val rng   = new Rng(7)
    val train = (0 until 500).map(_ => (42L, rng.nextDouble())).toDF("k", "y")
    val cand  = (0 until 50).map(i => (i.toLong, i.toDouble)).toDF("k", "x")
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(Candidate("c", cand, "k", "x", AggFn.Avg)), SketchConf(64))
    assert(ranked.size == 1)
    val r = ranked.head
    assert(r.sketchJoinSize == 64 && r.estimator == "MixedKSG", r.toString)
    assert(!r.estimatedMI.isNaN && !r.estimatedMI.isInfinite, r.toString)
  }

  test("with n >= N the left sketch holds every train row and the join is whole") {
    val (train, cand) = fixtures(8)
    val small = train.filter(col("k") < 300)
    val conf  = SketchConf(1000)
    assert(SketchData.collect(TupSk.sketchLeft(small, "k", "y", conf)).size == 300)
    val ranked = JoinRanker.rank(small, "k", "y",
      Seq(Candidate("c", cand(0.9, 81).filter(col("k") < 300), "k", "x", AggFn.Avg)), conf)
    assert(ranked.head.sketchJoinSize == 300 && !ranked.head.estimatedMI.isNaN, ranked.toString)
  }
}
