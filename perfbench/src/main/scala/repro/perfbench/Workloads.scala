package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Hashing
import repro.discovery.JoinRanker
import repro.discovery.JoinRanker.{Candidate, Ranked}
import repro.mi.{ColData, EstimatorKind, MI, MleSpark, NumCol, StrCol}
import repro.sketch.{AggFn, Featurize, Lv2Sk, PriSk, Sketch, TupSk}
import repro.stats.Stats
import repro.synth.OpenDataGen

/** An output that contradicts what the program promises; fails the run. */
final class CheckFailed(msg: String) extends Exception(msg)

/** One operation's outcome: work units done and how many estimates that
  * were due came back non-finite.
  */
final case class OpResult(units: Int, nonFinite: Int)

/** A workload's generated, cached inputs in one Spark session. */
trait Instance {
  /** Operations per round; the closed loop only stops between rounds, so
    * every operation kind is measured equally often.
    */
  def opsPerRound: Int
  /** Runs operation `i` through the stable entry points, or, with a tracer,
    * replays it through the calls those entry points make.
    */
  def op(i: Int, tr: Option[Tracer]): OpResult
  /** Runs a reduced operation through the same code paths, so lazy Spark
    * state is initialized before timing.
    */
  def warmUp(): Unit
  /** Spearman between the estimates produced and a reference; untimed. */
  def quality(): Double
  /** Times each layer on its own, on materialized inputs. */
  def probe(tr: Tracer): Unit
}

object Workloads {

  val names: Seq[String] = Seq("rank_small", "fullref")

  /** Sketch size n used by every workload. */
  val N = 1024
  /** JoinRanker's default: smaller sketch joins are not estimated. */
  val MinJoin = 10

  def prepare(name: String, spark: SparkSession, seed: Long): Instance = name match {
    case "rank_small" => RankSmall.prepare(spark, seed)
    case "fullref"    => FullRef.prepare(spark, seed)
    case other        => throw new IllegalArgumentException(s"unknown workload: $other")
  }

  def check(ok: Boolean, msg: => String): Unit = if (!ok) throw new CheckFailed(msg)

  /** The paper's estimator rule by column types (Section V). */
  def expectedEstimator(xNumeric: Boolean, yNumeric: Boolean): String =
    (xNumeric, yNumeric) match {
      case (false, false) => "MLE"
      case (true, true)   => "MixedKSG"
      case _              => "DC-KSG"
    }

  def finite(d: Double): Boolean = !d.isNaN && !d.isInfinite

  /** Split-layer probe on one (train, candidate) pair: each layer runs on a
    * cached copy of its input and is materialized (cache + count, or
    * collect) inside its span.
    */
  def probeLayers(tr: Tracer, train: DataFrame, target: String, cand: DataFrame,
                  value: String, agg: AggFn, key: String): Unit = {
    val conf    = Sketch.SketchConf(N)
    val cache   = scala.collection.mutable.ArrayBuffer.empty[DataFrame]
    def mat(name: String)(df: => DataFrame): DataFrame = {
      val (c, _) = tr.spanRows(name, key)(Inputs.counted(df))(_._2)
      cache += c; c
    }
    try {
      val norm  = mat("split.sketch.normalize")(Sketch.normalize(train, "k", target))
      tr.span("split.core.hash", key) {
        norm.agg(max(Hashing.hkey(col("k"))),
                 max(Hashing.huTuple(Hashing.SaltTuple, col("k"), lit(1)))).collect()
      }
      val withJ = mat("split.sketch.occurrence")(Sketch.withOccurrence(norm))
      val normC = Inputs.cached(Sketch.normalize(cand, "k", value)); cache += normC
      mat("split.sketch.aggregate")(Featurize.aggregateNorm(normC, agg))
      val pre = Inputs.cached(withJ.select(
        Hashing.hkey(col("k")) as "hkey",
        Hashing.huTuple(Hashing.SaltTuple, col("k"), col("j")) as "hu",
        col("vNum"), col("vStr")))
      cache += pre
      tr.spanRows("split.sketch.topn", key)(Sketch.topN(pre, N, Sketch.TopNImpl.Udaf).collect())(_.length.toLong)
      val left   = mat("split.sketch.left")(TupSk.sketchLeft(train, "k", target, conf))
      val right  = mat("split.sketch.right")(TupSk.sketchRight(cand, "k", value, agg, conf))
      val sample = tr.spanRows("split.sketch.join_collect", key)(
        Sketch.collectSample(Sketch.join(left, right)))(_.size.toLong)
      val kind = MI.auto(sample.x, sample.y)
      tr.spanRows("split.mi.estimate", key)(MI.estimate(kind, sample.x, sample.y))(_ => sample.size.toLong)
    } finally cache.foreach(_.unpersist())
  }

  /** Collected whole join `[x, y]` of a train and a candidate table. */
  def fullJoin(train: DataFrame, target: String, cand: DataFrame, value: String,
               agg: AggFn, xNumeric: Boolean, yNumeric: Boolean): (ColData, ColData) = {
    val rows = Featurize.augmentedJoin(train, "k", target, cand, "k", value, agg)
      .filter(col("xn").isNotNull || col("xstr").isNotNull)
      .select(if (xNumeric) col("xn") else col("xstr"), col("y"))
      .collect()
    val x: ColData =
      if (xNumeric) NumCol(rows.map(_.getDouble(0))) else StrCol(rows.map(_.getString(0)))
    val y: ColData =
      if (yNumeric) NumCol(rows.map(_.getDouble(1))) else StrCol(rows.map(_.getString(1)))
    (x, y)
  }

  /** The whole join computed in this process from the generated rows
    * `[k, value]`: the candidate aggregated per key (AVG, or MODE with ties
    * to the smaller value), inner-joined to the base. It is the reference
    * for the sketch estimates, independent of the Spark path.
    */
  def localJoin(base: Array[Row], cand: Array[Row], xNumeric: Boolean,
                yNumeric: Boolean): (ColData, ColData) = {
    val byKey = cand.groupBy(_.getString(0)).map { case (k, rs) =>
      val x: Any =
        if (xNumeric) rs.map(_.getDouble(1)).sum / rs.length
        else rs.map(_.getString(1)).groupBy(identity).toSeq
          .minBy { case (v, vs) => (-vs.length, v) }._1
      k -> x
    }
    val joined = base.flatMap(r => byKey.get(r.getString(0)).map(x => (x, r.get(1))))
    def colOf(vs: Array[Any], numeric: Boolean): ColData =
      if (numeric) NumCol(vs.map(_.asInstanceOf[Double])) else StrCol(vs.map(_.asInstanceOf[String]))
    (colOf(joined.map(_._1), xNumeric), colOf(joined.map(_._2), yNumeric))
  }
}

import Workloads._

/** A candidate, its column type (checked against the estimator chosen) and
  * its generated rows (for the reference join).
  */
final case class Cand(c: Candidate, xNumeric: Boolean, rows: Array[Row])

/** One `JoinRanker.rank` query: a base table and its candidates. */
final class RankQuery(val label: String, val base: DataFrame, val baseRows: Array[Row],
                      val yNumeric: Boolean, val cands: Seq[Cand]) {

  private val conf = Sketch.SketchConf(N)
  /** The first ranking seen; every later one must equal it exactly. */
  var first: Option[Seq[Ranked]] = None

  def run(tr: Option[Tracer]): OpResult = {
    val out = tr match {
      case None    => JoinRanker.rank(base, "k", "y", cands.map(_.c), conf, TupSk, MinJoin)
      case Some(t) => replay(t)
    }
    verify(out)
    OpResult(cands.size, out.count(r => r.sketchJoinSize >= MinJoin && !finite(r.estimatedMI)))
  }

  /** The calls `JoinRanker.rank` makes, one span each. */
  private def replay(tr: Tracer): Seq[Ranked] = {
    val left = tr.spanRows("sketch.left", label) {
      val l = TupSk.sketchLeft(base, "k", "y", conf).cache(); (l, l.count())
    }(_._2)._1
    try {
      val ranked = cands.map { cd =>
        val c      = cd.c
        val key    = s"$label/${c.name}"
        val right  = tr.span("sketch.right", key)(TupSk.sketchRight(c.df, c.key, c.value, c.agg, conf))
        val sample = tr.spanRows("sketch.join_collect", key)(
          Sketch.collectSample(Sketch.join(left, right)))(_.size.toLong)
        val kind = tr.span("mi.auto", key)(MI.auto(sample.x, sample.y))
        val est = tr.spanRows(s"mi.estimate.${kind.name}", key)(
          if (sample.size < MinJoin) Double.NaN else MI.estimate(kind, sample.x, sample.y)
        )(_ => sample.size.toLong)
        Ranked(c.name, est, sample.size, kind.name)
      }
      ranked.sortBy(r => if (r.estimatedMI.isNaN) Double.NegativeInfinity else r.estimatedMI)(
        Ordering[Double].reverse)
    } finally left.unpersist()
  }

  private def verify(out: Seq[Ranked]): Unit = {
    check(out.map(_.name).sorted == cands.map(_.c.name).sorted,
      s"$label: candidates not each ranked once: ${out.map(_.name)}")
    val (finiteHead, rest) = out.span(r => !r.estimatedMI.isNaN)
    check(rest.forall(_.estimatedMI.isNaN), s"$label: NaN estimates are not last")
    check(finiteHead.map(_.estimatedMI).sliding(2).forall(p => p.size < 2 || p(0) >= p(1)),
      s"$label: ranking not sorted descending")
    check(out.forall(_.sketchJoinSize <= N), s"$label: a sketch join exceeds n=$N")
    val byName = cands.map(cd => cd.c.name -> cd).toMap
    for (r <- out) {
      val want = expectedEstimator(byName(r.name).xNumeric, yNumeric)
      check(r.estimator == want, s"$label/${r.name}: estimator ${r.estimator}, expected $want")
    }
    first match {
      case None       => first = Some(out)
      case Some(prev) =>
        // Bitwise equality: NaN == NaN must hold, so compare the raw bits.
        def sig(rs: Seq[Ranked]) =
          rs.map(r => (r.name, java.lang.Double.doubleToLongBits(r.estimatedMI), r.sketchJoinSize, r.estimator))
        check(sig(prev) == sig(out), s"$label: ranking differs between identical queries")
    }
  }

  def ensureRun(): Seq[Ranked] = { if (first.isEmpty) run(None); first.get }

  def warmUp(candidates: Int): Unit =
    JoinRanker.rank(base, "k", "y", cands.take(candidates).map(_.c), conf, TupSk, MinJoin)
}

/** Repeated rank queries over a lake of small open-data-like tables: two
  * base tables (numeric target, WBF-like; string target, NYC-like) with 16
  * candidates each, half numeric (AVG) and half string (MODE), dependence
  * spread over [0, 1]. Operations alternate between the two queries.
  */
final class RankSmall(queries: Seq[RankQuery]) extends Instance {
  def opsPerRound: Int = queries.size

  def op(i: Int, tr: Option[Tracer]): OpResult = queries(i % queries.size).run(tr)

  def warmUp(): Unit = queries.head.warmUp(2)

  /** Sketch MIs against whole-join MIs. Estimators differ in scale, so the
    * Spearman is taken within each (query, estimator) group of candidates
    * and averaged over the groups where it is defined. It is undefined when
    * a side is constant: on some seeds every whole-join DC-KSG estimate with
    * a string target is 0, because the joined X repeats within each key.
    */
  def quality(): Double = {
    val pairs = for (q <- queries; r <- q.ensureRun() if finite(r.estimatedMI)) yield {
      val cd     = q.cands.find(_.c.name == r.name).get
      val (x, y) = localJoin(q.baseRows, cd.rows, cd.xNumeric, q.yNumeric)
      ((q.label, r.estimator), r.estimatedMI, MI.estimate(MI.auto(x, y), x, y))
    }
    val rhos = pairs.filter(p => finite(p._3)).groupBy(_._1).toSeq.sortBy(_._1)
      .map { case (group, g) => group -> Stats.spearman(g.map(_._2), g.map(_._3)) }
    Console.err.println("rank_spearman by group: " + rhos.map { case ((q, e), r) => s"$q/$e=$r" }.mkString(" "))
    val defined = rhos.map(_._2).filter(finite)
    defined.sum / defined.size
  }

  def probe(tr: Tracer): Unit = {
    val q  = queries.head
    val cd = q.cands.head
    probeLayers(tr, q.base, "y", cd.c.df, cd.c.value, cd.c.agg, q.label)
    // The two-level sketches run only here: their eager count is the
    // extra jobs LV2SK/PRISK pay before any action.
    for (sk <- Seq(Lv2Sk, PriSk))
      tr.spanRows(s"sketch.left.${sk.name}", q.label)(
        Inputs.counted(sk.sketchLeft(q.base, "k", "y", Sketch.SketchConf(N))))(_._2)._1.unpersist()
    // The full path on one candidate per estimator, and the distributed
    // plug-in MI on a string-string join.
    for (q <- queries; cd <- q.cands.take(2)) {
      val key    = s"${q.label}/${cd.c.name}"
      val (x, y) = tr.spanRows("sketch.fulljoin", key)(
        fullJoin(q.base, "y", cd.c.df, cd.c.value, cd.c.agg, cd.xNumeric, q.yNumeric))(_._1.size.toLong)
      val kind = MI.auto(x, y)
      tr.spanRows(s"mi.full_estimate.${kind.name}", key)(MI.estimate(kind, x, y))(_ => x.size.toLong)
      if (kind == EstimatorKind.MLE)
        tr.span("mi.mlespark", key) {
          val joined = Featurize.augmentedJoin(q.base, "k", "y", cd.c.df, "k", cd.c.value, cd.c.agg)
          MleSpark.mi(joined.select(col("xstr") as "x", col("y")), "x", "y")
        }
    }
  }
}

object RankSmall {
  val Candidates = 16

  def prepare(spark: SparkSession, seed: Long): RankSmall = {
    val queries = Seq(("WBF", true), ("NYC", false)).zipWithIndex.map { case ((coll, yNum), qi) =>
      val baseSpec = OpenDataGen.specs(coll, 1, seed * 2 + qi).head.copy(yNumeric = yNum, dep = 0.9)
      val shapes   = OpenDataGen.specs(coll, Candidates, seed * 2 + qi + 7919)
      val baseDf   = OpenDataGen.generate(spark, baseSpec).train
      val baseRows = baseDf.collect()
      val gens = shapes.zipWithIndex.map { case (shape, i) =>
        val xNum = i % 2 == 0
        // Square-root spacing spreads the resulting MIs more evenly than
        // evenly spaced dependence, which leaves many near-zero MIs.
        val dep  = math.sqrt((i + 0.5) / Candidates)
        // Same id/seed as the base, so the keys and latent scores line up.
        val spec = baseSpec.copy(rightKeyDomain = shape.rightKeyDomain,
          rightDupMax = shape.rightDupMax, overlap = shape.overlap, xNumeric = xNum, dep = dep)
        val gen  = OpenDataGen.generate(spark, spec).cand
        (s"c$i", xNum, gen.schema, gen.collect())
      }
      val frames = Inputs.cachedAll(
        Inputs.relaid(spark, baseDf.schema, baseRows) +: gens.map(g => Inputs.relaid(spark, g._3, g._4)))
      val cands = gens.zip(frames.tail).map { case ((name, xNum, _, rows), df) =>
        Cand(Candidate(name, df, "k", "x", if (xNum) AggFn.Avg else AggFn.Mode), xNum, rows)
      }
      new RankQuery(coll, frames.head, baseRows, yNum, cands)
    }
    new RankSmall(queries)
  }
}

/** The Section V-D full path: whole-join MixedKSG estimates at
  * N in {5k, 10k, 20k}. Each train key has four rows and one candidate row;
  * X repeats across keys, and a quarter of the keys repeat one Y on all four
  * rows, so MixedKSG's zero-distance branch runs.
  */
final class FullRef(inputs: Seq[FullRef.Input]) extends Instance {
  def opsPerRound: Int = inputs.size

  private val firstEst = Array.fill(inputs.size)(Double.NaN)
  private val seen     = Array.fill(inputs.size)(false)

  def op(i: Int, tr: Option[Tracer]): OpResult = {
    val j   = i % inputs.size
    val in  = inputs(j)
    def t[A](name: String)(rows: A => Long)(body: => A): A =
      tr.fold(body)(_.spanRows(name, s"N=${in.n}")(body)(rows))
    val (x, y) = t[(ColData, ColData)]("sketch.fulljoin")(_._1.size.toLong) {
      fullJoin(in.train, "y", in.cand, "x", AggFn.Avg, xNumeric = true, yNumeric = true)
    }
    val est = t[Double]("mi.full_estimate.MixedKSG")(_ => x.size.toLong) {
      MI.estimate(EstimatorKind.MixedKSG, x, y)
    }
    check(x.size == in.n, s"N=${in.n}: whole join has ${x.size} rows, expected ${in.n}")
    check(!finite(est) || est >= 0.0, s"N=${in.n}: negative estimate $est")
    if (seen(j))
      check(java.lang.Double.compare(firstEst(j), est) == 0,
        s"N=${in.n}: estimate changed between identical operations")
    else { firstEst(j) = est; seen(j) = true }
    OpResult(1, if (finite(est)) 0 else 1)
  }

  /** The middle size, so the estimator's loops are compiled before timing. */
  def warmUp(): Unit = op(1, None)

  def quality(): Double = {
    inputs.indices.foreach(j => if (!seen(j)) op(j, None))
    Stats.spearman(firstEst.toSeq, inputs.map(_.dep))
  }

  def probe(tr: Tracer): Unit = {
    val in = inputs.head
    probeLayers(tr, in.train, "y", in.cand, "x", AggFn.Avg, s"N=${in.n}")
  }
}

object FullRef {
  final case class Input(n: Int, dep: Double, train: DataFrame, cand: DataFrame)

  val Sizes       = Seq(5000, 10000, 20000)
  val RowsPerKey  = 4
  val XLevels     = 16

  def prepare(spark: SparkSession, seed: Long): FullRef = {
    // Dependence levels are dealt to the sizes in a seed-dependent order.
    val deps = new scala.util.Random(seed).shuffle(Seq(0.2, 0.5, 0.8))
    val inputs = Sizes.zip(deps).zipWithIndex.map { case ((n, d), i) =>
      val keys = n / RowsPerKey
      val s    = seed * 31 + i
      val x    = floor(Inputs.uniform(s, 1, col("k")) * XLevels)
      val cand = Inputs.cached(spark.range(0, keys, 1, Inputs.Partitions)
        .select(col("id") as "k").select(col("k"), x.cast("double") as "x"))
      val tieKey = Inputs.uniform(s, 2, col("k")) < 0.25
      val noise  = when(tieKey, Inputs.uniform(s, 3, col("k"))).otherwise(Inputs.uniform(s, 4, col("id")))
      val train = Inputs.cached(spark.range(0, n.toLong, 1, Inputs.Partitions)
        .select((col("id") % keys) as "k", col("id"))
        .select(col("k"), (x / XLevels * d + noise * (1 - d)) as "y"))
      Input(n, d, train, cand)
    }
    new FullRef(inputs)
  }
}
