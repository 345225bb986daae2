package repro.sketch

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.mi.{NumCol, StrCol}
import repro.sketch.Sketch.{Sample, SketchConf, SketchData}
import scala.jdk.CollectionConverters._

/** The in-memory sketch join ([[Sketch.merge]]) against the DataFrame inner
  * join it replaced ([[SketchJoinOracle]]), on sketches given row by row.
  */
class SketchMergeSpec extends SparkSpec {

  private val schema = StructType(Seq(
    StructField("hkey", LongType), StructField("hu", DoubleType),
    StructField("vNum", DoubleType), StructField("vStr", StringType)))

  /** A sketch DataFrame of (hkey, value) rows; a value is a Double or a String. */
  private def sketch(rows: Seq[(Long, Any)]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows.zipWithIndex.map {
      case ((h, v: Double), i) => Row(h, i / 64.0, v, null)
      case ((h, v), i)         => Row(h, i / 64.0, null, v)
    }, 2), schema)

  private def pairs(s: Sample): Seq[(AnyRef, AnyRef)] =
    s.x.anyValues.zip(s.y.anyValues).sortBy(_.toString)

  private def sameJoin(l: Seq[(Long, Any)], r: Seq[(Long, Any)]): Prop = {
    val (ld, rd) = (sketch(l), sketch(r))
    val got = Sketch.merge(SketchData.collect(ld), SketchData.collect(rd))
    val exp = SketchJoinOracle.collectSample(SketchJoinOracle.join(ld, rd))
    Prop(pairs(got) == pairs(exp) && got.x.isNumeric == exp.x.isNumeric &&
      got.y.isNumeric == exp.y.isNumeric) :| s"merge $got vs oracle $exp"
  }

  /** Values of one type per side: multiples of 1/8 or short strings, few
    * distinct ones, so equal pairs occur.
    */
  private def genValue(numeric: Boolean): Gen[Any] =
    if (numeric) Gen.choose(-8, 8).map(_ / 8.0) else Gen.choose(0, 5).map(i => s"s$i")

  private def genSide(keys: Gen[Long], size: Gen[Int], numeric: Boolean): Gen[Seq[(Long, Any)]] =
    size.flatMap(n => Gen.listOfN(n, Gen.zip(keys, genValue(numeric))))

  private val distinctRight: Gen[Seq[Long]] =
    Gen.choose(0, 8).flatMap(n => Gen.pick(n, 0L until 8L)).map(_.toSeq)

  /** Sketch-pair shapes the join must handle, each with any value types.
    * Side sizes above the key-domain size force the repeats a shape names.
    */
  private val shapes: Seq[(String, Boolean => Boolean => Gen[(Seq[(Long, Any)], Seq[(Long, Any)])])] = Seq(
    "repeated hkeys on the left" -> (ln => rn => for {
      l  <- genSide(Gen.choose(0L, 7L), Gen.choose(9, 30), ln)
      rk <- distinctRight
      rv <- Gen.listOfN(rk.size, genValue(rn))
    } yield (l, rk.zip(rv))),
    "repeated hkeys on both sides" -> (ln => rn => Gen.zip(
      genSide(Gen.choose(0L, 5L), Gen.choose(7, 20), ln),
      genSide(Gen.choose(0L, 5L), Gen.choose(7, 20), rn))),
    "disjoint sides" -> (ln => rn => Gen.zip(
      genSide(Gen.choose(0L, 7L), Gen.choose(1, 10), ln),
      genSide(Gen.choose(8L, 15L), Gen.choose(1, 10), rn))),
    "an empty side" -> (ln => rn => for {
      a     <- genSide(Gen.choose(0L, 7L), Gen.choose(0, 10), ln)
      b     <- genSide(Gen.choose(0L, 7L), Gen.choose(0, 10), rn)
      which <- Gen.choose(0, 2)
    } yield if (which == 0) (Nil, b) else if (which == 1) (a, Nil) else (Nil, Nil)),
  )

  for ((shape, gen) <- shapes) test(s"merge equals the DataFrame join: $shape") {
    val prop = Prop.forAllNoShrink(Gen.zip(Gen.oneOf(true, false), Gen.oneOf(true, false))
      .flatMap { case (ln, rn) => gen(ln)(rn) }) { case (l, r) => sameJoin(l, r) }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(12), prop)
    assert(res.passed, res.status.toString)
  }

  test("repeated hkeys on both sides join as their cross product") {
    val l = SketchData(Array(1L, 2L, 2L, 5L), NumCol(Array(1.0, 2.0, 3.0, 4.0)))
    val r = SketchData(Array(2L, 2L, 2L, 3L, 5L), StrCol(Array("a", "b", "c", "d", "e")))
    val s = Sketch.merge(l, r)
    assert(s.size == 7)
    assert(s.x.asInstanceOf[StrCol].values.toSeq == Seq("a", "b", "c", "a", "b", "c", "e"))
    assert(s.y.asInstanceOf[NumCol].values.toSeq == Seq(2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0))
  }

  test("an empty join of two string sketches comes back numeric, as from the DataFrame join") {
    val (l, r) = (sketch(Seq(1L -> "a", 1L -> "b")), sketch(Seq(2L -> "c")))
    val s = Sketch.merge(SketchData.collect(l), SketchData.collect(r))
    assert(s.size == 0)
    assert(s.x.isInstanceOf[NumCol] && s.y.isInstanceOf[NumCol])
    val o = SketchJoinOracle.collectSample(SketchJoinOracle.join(l, r))
    assert(o.x.isInstanceOf[NumCol] && o.y.isInstanceOf[NumCol])
  }

  test("a collected sketch is sorted by hkey and then value, whatever the row order") {
    val rows = Seq(3L -> 0.5, 1L -> 2.0, 3L -> -1.0, 1L -> 0.25)
    val a = SketchData.collect(sketch(rows))
    val b = SketchData.collect(sketch(rows.reverse))
    assert(a.hkey.toSeq == Seq(1L, 1L, 3L, 3L))
    assert(a.values.asInstanceOf[NumCol].values.toSeq == Seq(0.25, 2.0, -1.0, 0.5))
    assert(b.hkey.toSeq == a.hkey.toSeq && b.values.anyValues == a.values.anyValues)
  }

  test("merging two collected sketches runs no Spark job") {
    val df   = spark.range(0, 2000).selectExpr("id % 300 as k", "rand(3) as v")
    val conf = SketchConf(128)
    val l    = SketchData.collect(TupSk.sketchLeft(df, "k", "v", conf))
    val r    = SketchData.collect(TupSk.sketchRight(df, "k", "v", AggFn.Avg, conf))
    val jobs = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      val s = Sketch.merge(l, r)
      assert(s.size > 0)
      // Listener events arrive in job order: once the marker job is seen,
      // any job the merge started has been seen before it.
      spark.sparkContext.setJobDescription("marker")
      try spark.sparkContext.parallelize(Seq(1), 1).count()
      finally spark.sparkContext.setJobDescription(null)
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!jobs.contains("marker") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(jobs.asScala.toSeq == Seq("marker"))
    } finally spark.sparkContext.removeSparkListener(listener)
  }
}
