package repro.sketch

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.sketch.Sketch.SketchConf

import scala.io.Source

/** Pins every (scheme, side) sketch to recorded rows, bit for bit. The
  * record in `golden-sketches.txt` holds the rows each scheme kept before
  * the five schemes shared one pipeline; any change to what a sketch keeps,
  * or to a hash, value or row count, fails here. Re-record it only for a
  * deliberate change of sketch contents.
  *
  * Inputs are small local tables with skewed, repeated keys and n below
  * both the row and the key count. Numeric values are multiples of 1/8, so
  * AVG's sums are exact under any partitioning.
  */
class GoldenSketchSpec extends SparkSpec {

  private lazy val golden: Map[String, Seq[String]] =
    Source.fromResource("repro/sketch/golden-sketches.txt").getLines().toSeq
      .groupBy(_.split('\t').take(2).mkString("\t"))

  for (sk <- Sketcher.all; side <- Seq("left", "right")) {
    test(s"${sk.name} $side sketches match the golden rows") {
      val got = GoldenSketchSpec.lines(spark, sk, side)
      assert(got.nonEmpty)
      assert(got == golden(s"${sk.name}\t$side"))
    }
  }
}

object GoldenSketchSpec {
  val N: SketchConf = SketchConf(5)

  /** 96 rows over 12 keys: key 0 holds every even row, and key i % (1 + i/8)
    * makes the other small keys frequent, so LV2SK/PRISK keep several rows of
    * key 0 if they select it.
    */
  def left(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (0 until 96)
      .map(i => (if (i % 2 == 0) 0 else i % (1 + i / 8), ((i * 7) % 23) / 8.0, s"y${(i * 5) % 7}"))
      .toDF("k", "num", "str")
  }

  /** 72 rows over 12 keys, skewed the same way, string keys. */
  def right(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (0 until 72).map(i => (s"${i % (1 + i / 6)}", ((i * 11) % 19) / 8.0, s"x${(i * 3) % 5}"))
      .toDF("k", "num", "str")
  }

  /** One line per sketch row: scheme, side, case, hkey, hu bits, vNum bits,
    * vStr; sorted within each case.
    */
  def lines(spark: SparkSession, sk: Sketcher, side: String): Seq[String] = {
    val cases: Seq[(String, DataFrame)] = side match {
      case "left" =>
        val df = left(spark)
        Seq("num", "str").map(v => v -> sk.sketchLeft(df, "k", v, N))
      case "right" =>
        val df = right(spark)
        Seq("num" -> AggFn.Avg, "num" -> AggFn.Mode, "num" -> AggFn.Count,
            "str" -> AggFn.Mode, "str" -> AggFn.Count)
          .map { case (v, agg) => s"$v ${agg.name}" -> sk.sketchRight(df, "k", v, agg, N) }
    }
    cases.flatMap { case (label, sketch) =>
      sketch.select("hkey", "hu", "vNum", "vStr").collect().toSeq.map { r =>
        val vNum = if (r.isNullAt(2)) "null" else java.lang.Double.doubleToLongBits(r.getDouble(2)).toString
        val vStr = if (r.isNullAt(3)) "null" else r.getString(3)
        Seq(sk.name, side, label, r.getLong(0).toString,
            java.lang.Double.doubleToLongBits(r.getDouble(1)).toString, vNum, vStr).mkString("\t")
      }.sorted
    }
  }
}
