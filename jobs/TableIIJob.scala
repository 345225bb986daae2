package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.TableIIExp

/** spark-submit entrypoint reproducing Table II (open-data substitute).
  * Usage: TableIIJob [pairsPerCollection] [sketchSize] [seed]
  */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val pairs = if (args.length > 0) args(0).toInt else 120
    val n     = if (args.length > 1) args(1).toInt else TableIIExp.SketchN
    val seed  = if (args.length > 2) args(2).toLong else 11L
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-table2")
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val recs = Seq("NYC", "WBF").flatMap(c => TableIIExp.run(spark, c, pairs, n, seed))
      println(TableIIExp.format(TableIIExp.summarize(recs)))
    } finally spark.stop()
  }
}
